//! `hotpath_real2`: the DSM library as real software. Real clock, no
//! network model, two processes: rank 1 dirties seed-chosen words in
//! every page, the join publishes the write notices, the master reads
//! them all back (fault, diff fetch, apply), then a burst of empty
//! regions times the bare fork/join round trip. Once per process the
//! same program also runs a few rounds under the 1999 models on a
//! virtual clock: that is the workload's `sim_s`, what the modelled NOW
//! would take for the rounds the real clock times.

use super::kernels::traffic_values;
use super::{real_cfg, Run, Workload};
use crate::rng::Rng;
use crate::stats::{median, percentile};
use nowmp_core::ClusterConfig;
use nowmp_net::{CostModel, NetModel};
use nowmp_omp::{OmpProgram, OmpSystem, Params};
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;
use std::sync::Arc;
use std::time::Instant;

/// Pages rank 1 dirties per round.
pub const PAGES: usize = 256;
/// Words per 4 KB page.
const SLOTS: usize = 512;
/// Words dirtied per page per round.
pub const WORDS_PER_PAGE: usize = 64;
/// Write/read rounds per rep.
const ROUNDS: u64 = 400;
/// Empty regions per rep.
const EMPTY_REGIONS: usize = 4000;
/// Rounds of the modelled run behind `sim_s`.
const MODEL_ROUNDS: u64 = 4;

/// The value round `round` stores in word `k` of the dirty set.
fn word(seed: u64, round: u64, k: usize) -> u64 {
    let mut z = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64) << 20;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 27)) | 1
}

/// The seed's dirty set: for every page, `WORDS_PER_PAGE` distinct slot
/// indexes, as ascending indexes into the whole array.
pub fn dirty_set(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x407);
    let mut all = Vec::with_capacity(PAGES * WORDS_PER_PAGE);
    let mut slots: Vec<usize> = (0..SLOTS).collect();
    for page in 0..PAGES {
        rng.shuffle(&mut slots);
        let mut pick = slots[..WORDS_PER_PAGE].to_vec();
        pick.sort_unstable();
        all.extend(pick.into_iter().map(|s| page * SLOTS + s));
    }
    all
}

/// `hotpath_real2`.
pub struct Hotpath {
    seed: u64,
    dirty: Arc<Vec<usize>>,
    /// Simulated seconds of the modelled rounds, measured on the first
    /// rep and reported by all.
    model_sim: Option<f64>,
}

impl Hotpath {
    /// Draw the dirty set for `seed`.
    pub fn new(seed: u64) -> Hotpath {
        Hotpath {
            seed,
            dirty: Arc::new(dirty_set(seed)),
            model_sim: None,
        }
    }

    /// `MODEL_ROUNDS` rounds after a warm-up round on a two-host virtual
    /// cluster under the 1999 wire and host models: `(simulated seconds,
    /// words read back wrong)`.
    fn modelled_rounds(&self, run: &mut Run<'_>) -> (f64, usize) {
        let cfg = ClusterConfig::test(2, 2)
            .with_clock(Clock::new_virtual())
            .with_net_model(NetModel::paper_1999())
            .with_cost_model(CostModel::paper_1999())
            .with_dsm(DsmConfig::default_4k())
            .with_adaptive(false);
        let clock = cfg.clock.clone();
        let root = run.rec.begin("hotpath_real2:modelled", "bench", 0.0);
        let mut sys = OmpSystem::new(cfg, self.program());
        sys.alloc_u64("pages", (PAGES * SLOTS) as u64);
        let mut wrong = self.round(&mut sys, 0);
        let t0 = clock.now();
        for round in 1..=MODEL_ROUNDS {
            wrong += self.round(&mut sys, round);
        }
        let sim = clock.elapsed_since(t0).as_secs_f64();
        sys.shutdown();
        run.rec.end(root, sim);
        (sim, wrong)
    }

    fn program(&self) -> OmpProgram {
        let (seed, dirty) = (self.seed, Arc::clone(&self.dirty));
        OmpProgram::new()
            .region("write", move |ctx| {
                let round = ctx.params().u64();
                if ctx.pid() == 1 {
                    let pages = ctx.u64vec("pages");
                    for (k, &idx) in dirty.iter().enumerate() {
                        pages.set(ctx.dsm(), idx, word(seed, round, k));
                    }
                }
            })
            .region("nop", |_| {})
    }

    /// One round: rank 1 writes, join, the master reads everything back.
    /// Returns how many words read back wrong.
    fn round(&self, sys: &mut OmpSystem, round: u64) -> usize {
        sys.parallel("write", &Params::new().u64(round).build());
        sys.seq(|ctx| {
            let pages = ctx.u64vec("pages");
            self.dirty
                .iter()
                .enumerate()
                .filter(|&(k, &idx)| pages.get(ctx.dsm(), idx) != word(self.seed, round, k))
                .count()
        })
    }
}

impl Workload for Hotpath {
    fn rep(&mut self, run: &mut Run<'_>) {
        let _pin = crate::env::pin_to_one_cpu();
        let clock = Clock::real();
        let origin = clock.now();
        let real_now = move || clock.elapsed_since(origin).as_secs_f64();
        let root = run.rec.begin("hotpath_real2", "bench", real_now());

        // Set-up ends after a warm-up round: first-touch page creation
        // and twin allocation are paid once per system, not per round.
        let t = Instant::now();
        let s = run.rec.begin("OmpSystem::new", "core", real_now());
        let mut sys = OmpSystem::new(real_cfg(2), self.program());
        run.rec.end(s, real_now());
        let new_wall = t.elapsed().as_secs_f64();
        let s = run.rec.begin("warm-up round", "tmk", real_now());
        sys.alloc_u64("pages", (PAGES * SLOTS) as u64);
        let mut wrong = self.round(&mut sys, 0);
        run.rec.end(s, real_now());
        let setup = t.elapsed().as_secs_f64();

        let (dsm0, net0) = (sys.dsm_stats(), sys.net_stats());
        let (t, real0) = (Instant::now(), real_now());
        let s = run.rec.begin("write/join/read rounds", "tmk", real0);
        let mut round_s = Vec::with_capacity(ROUNDS as usize);
        for round in 1..=ROUNDS {
            let t = Instant::now();
            wrong += self.round(&mut sys, round);
            round_s.push(t.elapsed().as_secs_f64());
        }
        run.rec.end(s, real_now());

        let s = run.rec.begin("empty regions", "omp", real_now());
        let mut rtt_us = Vec::with_capacity(EMPTY_REGIONS);
        for _ in 0..EMPTY_REGIONS {
            let t = Instant::now();
            sys.parallel("nop", &[]);
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        run.rec.end(s, real_now());
        let wall = t.elapsed().as_secs_f64();
        for &secs in &round_s {
            run.parts.add("round", 0, ROUNDS as f64, secs);
        }
        for &us in &rtt_us {
            run.parts.add("region", 0, EMPTY_REGIONS as f64, us * 1e-6);
        }
        let dsm = sys.dsm_stats().since(&dsm0);
        let net = sys.net_stats().since(&net0);

        let t = Instant::now();
        let s = run.rec.begin("OmpSystem::shutdown", "core", real_now());
        sys.shutdown();
        run.rec.end(s, real_now());
        let shutdown_wall = t.elapsed().as_secs_f64();
        run.rec.end(root, real_now());

        let model_sim = match self.model_sim {
            Some(sim) => sim,
            None => {
                let (sim, model_wrong) = self.modelled_rounds(run);
                wrong += model_wrong;
                *self.model_sim.insert(sim)
            }
        };
        run.checks.check(wrong == 0, || {
            format!("hotpath: {wrong} words read back wrong after a join")
        });
        run.checks.check(dsm.diffs_fetched > 0, || {
            "hotpath: no diff crossed the wire — the read-back did not fault".to_owned()
        });

        run.e2e("setup_s", setup);
        run.e2e("sim_s", model_sim);
        run.e2e("pages_per_s", PAGES as f64 / median(&round_s));
        run.e2e("region_rtt_us_p50", median(&rtt_us));
        run.layer("tmk.region_rtt_us_p99", percentile(&rtt_us, 0.99));
        run.layer("core.system_new_wall_s", new_wall);
        run.layer("core.shutdown_wall_s", shutdown_wall);
        for (name, v) in traffic_values(&dsm, &net, wall, 1) {
            run.layer(name, v);
        }
    }
}
