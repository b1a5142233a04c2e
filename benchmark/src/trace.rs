//! The traced run's recorder.
//!
//! One span per call the harness makes into a layer, each with name,
//! layer, parent, run id and start/end on *both* clocks (host wall
//! seconds since the recorder was made; simulated seconds on the run's
//! own timeline), plus counter deltas taken at the same boundaries.
//! Spans stay in memory; at exit they are written as Chrome trace-event
//! JSON and as a "where the time went" table whose rows are self times
//! (span minus children) and therefore sum to the run total on both
//! clocks.
//!
//! Spans come from the harness's own files, around the calls into each
//! layer; adaptation and per-job spans are synthesised afterwards from
//! `EventLog` / `TenancyReport` timestamps (simulated clock only).

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`OmpSystem::new`, `Kernel::step`, ...).
    pub name: String,
    /// The crate the call lands in (`core`, `apps`, ...; `bench` for the
    /// harness's own roots).
    pub layer: &'static str,
    /// Enclosing span.
    pub parent: Option<SpanId>,
    /// Run (rep) the span belongs to; spans of one run share it.
    pub run: u32,
    /// 0 = the run's call tree. Other tracks hold spans that overlap
    /// their siblings (concurrent tenants); they are drawn in the trace
    /// but stay out of the self-time table.
    pub track: u32,
    /// Wall start/end, seconds since the recorder was created.
    pub wall: (f64, f64),
    /// Simulated start/end, seconds on the run's timeline.
    pub sim: (f64, f64),
    /// Counter deltas over the span.
    pub counters: Vec<(&'static str, f64)>,
}

/// In-memory span store. A disabled recorder records nothing and every
/// call on it is a branch on one flag.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    run: u32,
}

/// One row of the "where the time went" table.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Layer of the spans summed into this row.
    pub layer: &'static str,
    /// Span name.
    pub name: String,
    /// Spans summed.
    pub count: usize,
    /// Wall self seconds.
    pub wall_self: f64,
    /// Simulated self seconds.
    pub sim_self: f64,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Is this recorder recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn wall_now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one; `sim_now` is the run's
    /// simulated time in seconds at this instant.
    pub fn begin(&mut self, name: &str, layer: &'static str, sim_now: f64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.wall_now();
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name: name.to_owned(),
            layer,
            parent: self.stack.last().copied(),
            run: self.run,
            track: 0,
            wall: (now, now),
            sim: (sim_now, sim_now),
            counters: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId, sim_now: f64) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let now = self.wall_now();
        let s = &mut self.spans[id.0];
        s.wall.1 = now;
        // A span never ends before it starts, even if the caller's
        // simulated clock was sampled on two timelines.
        s.sim.1 = sim_now.max(s.sim.0);
    }

    /// Attach a counter delta to `id`.
    pub fn counter(&mut self, id: SpanId, key: &'static str, value: f64) {
        if self.enabled {
            self.spans[id.0].counters.push((key, value));
        }
    }

    /// Add a finished child of `parent` that exists on the simulated
    /// clock only (built from log timestamps): zero-length on the wall
    /// clock, at the parent's wall start. `track != 0` marks a span
    /// that may overlap its siblings.
    pub fn synth(
        &mut self,
        parent: SpanId,
        name: &str,
        layer: &'static str,
        sim: (f64, f64),
        track: u32,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let p = &self.spans[parent.0];
        let (wall0, run) = (p.wall.0, p.run);
        // Clamp into the parent, and (on the call tree) behind the
        // previous sibling, so children never overlap and self times
        // stay non-negative.
        let floor = if track == 0 {
            self.spans
                .iter()
                .rev()
                .find(|s| s.parent == Some(parent) && s.track == 0)
                .map_or(p.sim.0, |s| s.sim.1)
        } else {
            p.sim.0
        };
        let lo = sim.0.clamp(floor, p.sim.1);
        let hi = sim.1.clamp(lo, p.sim.1);
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name: name.to_owned(),
            layer,
            parent: Some(parent),
            run,
            track,
            wall: (wall0, wall0),
            sim: (lo, hi),
            counters: Vec::new(),
        });
        id
    }

    /// Self time of every track-0 span, grouped by `(layer, name)`,
    /// largest wall share first. Because a self time is the span minus
    /// what its children cover, the rows sum to the total of the root
    /// spans on both clocks.
    pub fn breakdown(&self) -> Vec<BreakdownRow> {
        let mut child_wall = vec![0.0; self.spans.len()];
        let mut child_sim = vec![0.0; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.track == 0) {
            if let Some(p) = s.parent {
                child_wall[p.0] += s.wall.1 - s.wall.0;
                child_sim[p.0] += s.sim.1 - s.sim.0;
            }
        }
        let mut rows: BTreeMap<(&'static str, &str), BreakdownRow> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.track == 0) {
            let row = rows.entry((s.layer, &s.name)).or_insert(BreakdownRow {
                layer: s.layer,
                name: s.name.clone(),
                count: 0,
                wall_self: 0.0,
                sim_self: 0.0,
            });
            row.count += 1;
            row.wall_self += (s.wall.1 - s.wall.0) - child_wall[i];
            row.sim_self += (s.sim.1 - s.sim.0) - child_sim[i];
        }
        let mut rows: Vec<_> = rows.into_values().collect();
        rows.sort_by(|a, b| b.wall_self.total_cmp(&a.wall_self));
        rows
    }

    /// `(wall, sim)` seconds covered by the root spans of track 0 — what
    /// the breakdown rows must sum to.
    pub fn total(&self) -> (f64, f64) {
        self.spans
            .iter()
            .filter(|s| s.track == 0 && s.parent.is_none())
            .fold((0.0, 0.0), |(w, v), s| {
                (w + s.wall.1 - s.wall.0, v + s.sim.1 - s.sim.0)
            })
    }

    /// The breakdown as a fixed-width text table, with the closing sum.
    pub fn breakdown_text(&self) -> String {
        let rows = self.breakdown();
        let (wall, sim) = self.total();
        let pct = |x: f64, of: f64| if of > 0.0 { 100.0 * x / of } else { 0.0 };
        let mut out = format!(
            "{:<8} {:<28} {:>6} {:>12} {:>7} {:>12} {:>7}\n",
            "layer", "span", "count", "wall self s", "wall %", "sim self s", "sim %"
        );
        for r in &rows {
            out.push_str(&format!(
                "{:<8} {:<28} {:>6} {:>12.6} {:>7.2} {:>12.6} {:>7.2}\n",
                r.layer,
                r.name,
                r.count,
                r.wall_self,
                pct(r.wall_self, wall),
                r.sim_self,
                pct(r.sim_self, sim)
            ));
        }
        let (sw, ss) = rows
            .iter()
            .fold((0.0, 0.0), |(w, s), r| (w + r.wall_self, s + r.sim_self));
        out.push_str(&format!(
            "{:<8} {:<28} {:>6} {:>12.6} {:>7.2} {:>12.6} {:>7.2}\n",
            "",
            "sum of rows / run total",
            "",
            sw,
            pct(sw, wall),
            ss,
            pct(ss, sim)
        ));
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). Process 1
    /// is the wall clock, process 2 the simulated clock; the thread id
    /// is `run * 1000 + track`.
    pub fn chrome_trace(&self) -> Json {
        let mut events = vec![
            process_name(1, "wall clock (host seconds)"),
            process_name(2, "sim clock (simulated seconds)"),
        ];
        for s in &self.spans {
            let tid = s.run as u64 * 1000 + s.track as u64;
            let mut args = vec![
                ("layer".to_owned(), Json::from(s.layer)),
                ("run".to_owned(), Json::from(s.run as u64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_owned(), self.spans[p.0].name.as_str().into()));
            }
            args.extend(
                s.counters
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), (*v).into())),
            );
            for (pid, (t0, t1)) in [(1u64, s.wall), (2u64, s.sim)] {
                if pid == 1 && s.wall.0 == s.wall.1 && s.sim.0 != s.sim.1 {
                    continue; // synthesised: simulated clock only
                }
                events.push(obj([
                    ("name", Json::from(s.name.as_str())),
                    ("cat", s.layer.into()),
                    ("ph", "X".into()),
                    ("ts", (t0 * 1e6).into()),
                    ("dur", ((t1 - t0) * 1e6).into()),
                    ("pid", pid.into()),
                    ("tid", tid.into()),
                    ("args", Json::Obj(args.clone())),
                ]));
            }
        }
        obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", "ms".into()),
        ])
    }
}

fn process_name(pid: u64, name: &str) -> Json {
    obj([
        ("name", Json::from("process_name")),
        ("ph", "M".into()),
        ("pid", pid.into()),
        ("args", obj([("name", Json::from(name))])),
    ])
}
