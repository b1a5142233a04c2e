//! `adapt_churn8`: a small Jacobi under a seeded script of joins,
//! leaves, an urgent migration and a checkpoint that is then recovered.

use super::kernels::{
    check_kernel, kernel_run, layer_values, sim_cfg, Generation, StepHook, StepTiming,
};
use super::{host_loads, Run, Workload};
use crate::rng::Rng;
use crate::stats::{mean, median};
use nowmp_apps::{build_program, jacobi::Jacobi};
use nowmp_ckpt::Checkpoint;
use nowmp_core::{EventKind, LeaveSel, LogEntry};
use nowmp_omp::OmpSystem;
use std::path::{Path, PathBuf};

const GRID: usize = 192;
const ITERS: usize = 24;
const HOSTS: usize = 10;
const PROCS: usize = 8;

/// One scripted adaptation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A workstation joins.
    Join,
    /// The highest pid leaves, no deadline.
    LeaveEnd,
    /// The middle pid leaves, no deadline.
    LeaveMiddle,
    /// A seed-chosen worker leaves and its grace expires at once, so it
    /// migrates urgently and multiplexes until the next adaptation point.
    LeaveUrgent,
    /// A checkpoint at the next adaptation point.
    Checkpoint,
}

/// The six events of fixed kinds, three iterations apart, in the order
/// that walks the team 8 -> 9 -> 8 -> 7 -> 8 -> 7. Frozen with the
/// workload's sizes: a step costs what its team size makes it cost, so
/// a script drawn afresh per seed moved `wall_s` and `sim_s` by 13 %
/// between seeds, more than the bounds are meant to catch.
const SCRIPT: [(usize, Event); 6] = [
    (2, Event::Join),
    (5, Event::LeaveMiddle),
    (8, Event::Checkpoint),
    (11, Event::LeaveUrgent),
    (14, Event::Join),
    (17, Event::LeaveEnd),
];

/// The adaptation script for `seed`: [`SCRIPT`], moved as a whole by a
/// seed-drawn 0 to 4 iterations (the stretches between events, and so
/// the time spent at each team size, stay the same), and the seed's
/// pick among the workers for the urgent leaver.
pub fn script(seed: u64) -> (Vec<(usize, Event)>, u64) {
    let mut rng = Rng::new(seed, 0xC4A2);
    let shift = rng.below(5) as usize;
    let events = SCRIPT.iter().map(|&(it, e)| (it + shift, e)).collect();
    (events, rng.next_u64())
}

/// `adapt_churn8`.
pub struct Churn {
    kernel: Jacobi,
    loads: Vec<f64>,
    events: Vec<(usize, Event)>,
    urgent_pick: u64,
    dir: PathBuf,
}

impl Churn {
    /// Draw the script for `seed`.
    pub fn new(seed: u64) -> Churn {
        let (events, urgent_pick) = script(seed);
        Churn {
            kernel: Jacobi::new(GRID),
            loads: host_loads(seed, HOSTS),
            events,
            urgent_pick,
            dir: crate::env::out_dir(),
        }
    }

    fn fire(&self, event: Event, h: StepHook<'_>) -> Result<(), String> {
        let StepHook { sys, rec, sim_now } = h;
        let err = |e| format!("{event:?} refused: {e:?}");
        let n = sys.nprocs() as u16;
        match event {
            Event::Join => {
                let s = rec.begin("OmpSystem::join_ready", "core", sim_now());
                let r = sys.join_ready().map(drop).map_err(err);
                rec.end(s, sim_now());
                r
            }
            Event::LeaveEnd | Event::LeaveMiddle | Event::LeaveUrgent => {
                let pid = match event {
                    Event::LeaveEnd => n - 1,
                    Event::LeaveMiddle => n / 2,
                    _ => 1 + (self.urgent_pick % (n as u64 - 1)) as u16,
                };
                let s = rec.begin("AdaptHandle::leave", "core", sim_now());
                let r = sys.adapt().leave(LeaveSel::Pid(pid), None).map_err(err);
                rec.end(s, sim_now());
                let gpid = r?;
                if event == Event::LeaveUrgent {
                    let s = rec.begin("ClusterShared::force_urgent", "core", sim_now());
                    let took = sys.shared().force_urgent(gpid);
                    rec.end(s, sim_now());
                    if !took {
                        return Err("urgent migration did not start".to_owned());
                    }
                }
                Ok(())
            }
            Event::Checkpoint => {
                let s = rec.begin("AdaptHandle::checkpoint", "core", sim_now());
                sys.adapt().checkpoint();
                rec.end(s, sim_now());
                Ok(())
            }
        }
    }

    /// Recover from the checkpoint the run wrote, checkpoint the
    /// recovered system again, and compare the two images.
    fn recover_and_compare(&self, run: &mut Run<'_>, path: &Path) -> Result<(), String> {
        let root = run.rec.begin("adapt_churn8:recover", "bench", 0.0);
        let result = (|| {
            let s = run.rec.begin("Checkpoint::read_file", "ckpt", 0.0);
            let written = Checkpoint::read_file(path);
            run.rec.end(s, 0.0);
            let written = written.map_err(|e| format!("written checkpoint unreadable: {e}"))?;

            let again_path = path.with_extension("again.ckpt");
            let cfg = sim_cfg(&self.kernel, HOSTS, PROCS, Generation::Current, &self.loads)
                .with_ckpt_path(again_path.clone());
            let s = run.rec.begin("OmpSystem::recover", "core", 0.0);
            let recovered = OmpSystem::recover(cfg, build_program(&[&self.kernel]), path);
            run.rec.end(s, 0.0);
            let (mut sys, _blob) = recovered.map_err(|e| format!("recover failed: {e}"))?;

            let s = run.rec.begin("OmpSystem::checkpoint_now", "ckpt", 0.0);
            sys.checkpoint_now();
            run.rec.end(s, 0.0);
            let s = run.rec.begin("OmpSystem::shutdown", "core", 0.0);
            sys.shutdown();
            run.rec.end(s, 0.0);

            let again = Checkpoint::read_file(&again_path)
                .map_err(|e| format!("second checkpoint unreadable: {e}"))?;
            std::fs::remove_file(&again_path).ok();
            if written.image == again.image {
                Ok(())
            } else {
                Err("recovered image differs from the written one".to_owned())
            }
        })();
        run.rec.end(root, 0.0);
        result
    }
}

/// One committed adaptation point, from the event log.
struct Adapt {
    joins: usize,
    leaves: usize,
    /// Simulated time the point was logged at, seconds.
    at_s: f64,
    /// Simulated seconds it took (GC + fetches + commit).
    took_s: f64,
    bytes_moved: f64,
    max_link_bytes: f64,
}

fn adaptations(log: &[LogEntry]) -> Vec<Adapt> {
    log.iter()
        .filter_map(|e| match e.kind {
            EventKind::Adaptation {
                joins,
                leaves,
                took,
                bytes_moved,
                max_link_bytes,
                ..
            } => Some(Adapt {
                joins,
                leaves,
                at_s: e.at.as_secs_f64(),
                took_s: took.as_secs_f64(),
                bytes_moved: bytes_moved as f64,
                max_link_bytes: max_link_bytes as f64,
            }),
            _ => None,
        })
        .collect()
}

impl Workload for Churn {
    fn rep(&mut self, run: &mut Run<'_>) {
        // One file per process: concurrent harness runs must not share it.
        let path = self.dir.join(format!("churn-{}.ckpt", std::process::id()));
        std::fs::remove_file(&path).ok();
        let cfg = sim_cfg(&self.kernel, HOSTS, PROCS, Generation::Current, &self.loads)
            .with_adaptive(true)
            .with_ckpt_path(path.clone());
        let mut refused = Vec::new();
        let k = kernel_run(
            run.rec,
            "adapt_churn8",
            &self.kernel,
            cfg,
            (ITERS, 1),
            |hook, it| {
                // Script iterations are distinct: at most one event fires.
                if let Some((_, event)) = self.events.iter().find(|(at, _)| *at == it) {
                    if let Err(e) = self.fire(*event, hook) {
                        refused.push(e);
                    }
                }
            },
        );
        check_kernel(run.checks, "adapt_churn8", &k);
        run.checks.check(refused.is_empty(), || {
            format!("adapt_churn8: {}", refused.join("; "))
        });

        let adapts = adaptations(&k.log);
        let joins: usize = adapts.iter().map(|a| a.joins).sum();
        let leaves: usize = adapts.iter().map(|a| a.leaves).sum();
        let urgent: Vec<f64> = k
            .log
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::UrgentMigrationDone { took, .. } => Some(took.as_secs_f64() * 1e3),
                _ => None,
            })
            .collect();
        let ckpts = k
            .log
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Checkpoint { .. }))
            .count();
        run.checks.check(
            joins == 2 && leaves == 3 && urgent.len() == 1 && ckpts == 1,
            || {
                format!(
                    "adapt_churn8: script committed {joins} joins, {leaves} leaves, {} urgent \
                     migrations, {ckpts} checkpoints (want 2, 3, 1, 1)",
                    urgent.len()
                )
            },
        );
        let recovered = self.recover_and_compare(run, &path);
        run.checks.check(recovered.is_ok(), || {
            format!("adapt_churn8: {}", recovered.unwrap_err())
        });
        std::fs::remove_file(&path).ok();

        run.e2e("setup_s", k.setup_s());
        // The script's steps are not interchangeable — an adaptation
        // lands in six of them, and the team changes size — so each is
        // a part of its own, and so is each scripted request ahead of
        // its step (`join_ready` waits for the joiner to connect).
        for (it, step) in k.steps.iter().enumerate() {
            run.parts.add("step", it, 1.0, step.wall);
            if self.events.iter().any(|(at, _)| *at == it) {
                run.parts.add("request", it, 1.0, step.hook_wall);
            }
        }
        // Simulated time of the steps alone. `join_ready` blocks the
        // master until the joiner has connected, and how much simulated
        // time that wait spans (0.7 s to 4 s) follows host scheduling,
        // not the model; it would drown the adaptation costs, which
        // all land inside the steps.
        run.e2e("sim_s", k.steps.iter().map(|s| s.sim.1 - s.sim.0).sum());
        // Mean of `value` over the adaptation points that `keep` selects.
        let mean_of = |value: fn(&Adapt) -> f64, keep: fn(&Adapt) -> bool| {
            mean(
                &adapts
                    .iter()
                    .filter(|a| keep(a))
                    .map(value)
                    .collect::<Vec<_>>(),
            )
        };
        run.e2e("adapt_sim_s", mean_of(|a| a.took_s, |_| true));

        for (name, v) in layer_values(&k) {
            run.layer(name, v);
        }
        run.layer(
            "core.adapt_sim_ms_join",
            mean_of(|a| a.took_s * 1e3, |a| a.joins > 0 && a.leaves == 0),
        );
        run.layer(
            "core.adapt_sim_ms_leave",
            mean_of(|a| a.took_s * 1e3, |a| a.leaves > 0),
        );
        run.layer("core.adapt_sim_ms_urgent", mean(&urgent));
        run.layer(
            "core.adapt_bytes_moved",
            mean_of(|a| a.bytes_moved, |_| true),
        );
        run.layer(
            "core.adapt_max_link_bytes",
            mean_of(|a| a.max_link_bytes, |_| true),
        );
        // Host cost of an adaptation point: the steps that hit one
        // against the median step that did not.
        let hit = |s: &&StepTiming| adapts.iter().any(|a| (s.sim.0..=s.sim.1).contains(&a.at_s));
        let (with, without): (Vec<_>, Vec<_>) = k.steps.iter().partition(hit);
        let walls = |steps: &[&StepTiming]| steps.iter().map(|s| s.wall).collect::<Vec<_>>();
        run.layer(
            "core.adapt_wall_ms",
            (mean(&walls(&with)) - median(&walls(&without))) * 1e3,
        );
    }
}
