//! **§5.1 micro-costs** — the experimental-environment table:
//!
//! > "The roundtrip latency for a 1-byte message is 126 microseconds.
//! > The time to acquire a lock varies between 178 and 272 microseconds.
//! > The time for getting a diff varies between 313 and 1,544
//! > microseconds, depending on the size of the diff. A full page
//! > transfer takes 1,308 microseconds."
//!
//! We measure the same five quantities on the simulated NOW with the
//! paper's cost model, on the paper's 1999 protocol generation (one
//! blocking demand fault at a time), and report them side by side.
//! Times are read on the network's clock, so under `NOWMP_CLOCK=virtual`
//! they are modelled time, not the host's.

use bytes::Bytes;
use nowmp_bench::{bench_net_model, print_table};
use nowmp_net::{HostId, Network};
use nowmp_tmk::shared::SharedF64Vec;
use nowmp_tmk::system::{DsmSystem, MasterCtl, RegionRunner};
use nowmp_tmk::{DsmConfig, TmkCtx};
use nowmp_util::Clock;
use std::sync::Arc;
use std::time::Duration;

/// f64 slots of one 4 KB page.
const PAGE: usize = 512;

struct Toggle;
impl RegionRunner for Toggle {
    fn run(&self, region: u32, ctx: &mut TmkCtx) {
        let v = SharedF64Vec::lookup(ctx, "v");
        let mut p = nowmp_util::wire::Dec::new(ctx.params());
        let page = p.get_u64().unwrap() as usize;
        match region {
            // Write a prefix of one page: the diff size knob.
            0 => {
                let words = p.get_u64().unwrap() as usize;
                if ctx.pid() == 1 {
                    for i in page * PAGE..page * PAGE + words {
                        let cur = v.get(ctx, i);
                        v.set(ctx, i, cur + 1.0);
                    }
                }
            }
            // Touch the page's first element (diff/page fetch on the
            // reader).
            1 => {
                if ctx.pid() == 0 {
                    let _ = v.get(ctx, page * PAGE);
                }
            }
            // Lock/unlock once per process.
            2 => {
                ctx.lock(5);
                ctx.unlock(5);
            }
            _ => unreachable!(),
        }
    }
}

/// Region parameters: the page, and how many of its words to write.
fn params(page: usize, words: usize) -> Vec<u8> {
    let mut e = nowmp_util::wire::Enc::new();
    e.put_u64(page as u64);
    e.put_u64(words as u64);
    e.finish().to_vec()
}

/// Mean µs per rep of the master's read of page `page(rep)` (region 1),
/// after the worker wrote `words` words of it (region 0).
fn read_after_write(
    master: &mut MasterCtl,
    clock: &Clock,
    reps: usize,
    words: usize,
    page: impl Fn(usize) -> usize,
) -> f64 {
    let mut total = Duration::ZERO;
    for rep in 0..reps {
        master.parallel(0, &params(page(rep), words));
        let t0 = clock.now();
        master.parallel(1, &params(page(rep), 0));
        total += clock.elapsed_since(t0);
    }
    total.as_secs_f64() / reps as f64 * 1e6
}

fn main() {
    nowmp_bench::smoke_from_args();
    let model = bench_net_model();
    let reps = 50;

    // --- 1-byte roundtrip on the raw transport ---
    let net = Network::new(2, 1, model.clone());
    let clock = net.clock().clone();
    let a = net.register(HostId(0));
    let b = net.register(HostId(1));
    let bg = b.gpid();
    let server = clock.spawn("echo", move || {
        while let Ok(inc) = b.recv() {
            match inc.replier {
                Some(r) => r.reply(Bytes::from_static(b"y")),
                None => break,
            }
        }
    });
    let t0 = clock.now();
    for _ in 0..reps {
        a.call(bg, Bytes::from_static(b"x")).unwrap();
    }
    let rtt_us = clock.elapsed_since(t0).as_secs_f64() / reps as f64 * 1e6;
    a.send(bg, Bytes::new()).unwrap();
    server.join().unwrap();

    // --- DSM-level costs on a 2-process system ---
    let net = Network::new(2, 1, model);
    let clock = net.clock().clone();
    let cfg = DsmConfig::default_4k().generation_1999();
    let sys = DsmSystem::new(net, cfg, Arc::new(Toggle));
    let mut master = sys.start_master(HostId(0));
    let w = sys.spawn_worker(HostId(1), master.gpid(), vec![]);
    // Page 0 for the diff rows, then one fresh page per full-page rep.
    master.alloc("v", ((1 + reps) * PAGE) as u64, nowmp_tmk::ElemKind::F64);
    master.init_team(&[w]);

    // Lock acquisition (manager on master, acquirer = both).
    let t0 = clock.now();
    for _ in 0..reps {
        master.parallel(2, &params(0, 0));
    }
    let lock_region_us = clock.elapsed_since(t0).as_secs_f64() / reps as f64 * 1e6;

    // Full page transfer: each rep the worker writes a whole page the
    // master has never held, and the master reads it.
    let page_us = read_after_write(&mut master, &clock, reps, PAGE, |rep| 1 + rep);

    // Diff fetch: the master holds a copy of page 0 (read once, before
    // anyone wrote it) and each rep fetches the worker's new diff.
    master.parallel(1, &params(0, 0));
    let diff_us: Vec<(usize, f64)> = [16, 256, 511]
        .into_iter()
        .map(|words| {
            let us = read_after_write(&mut master, &clock, reps, words, |_| 0);
            (words, us)
        })
        .collect();
    master.shutdown();
    let lock_us_paper = "178-272";
    let rows = vec![
        vec![
            "1-byte roundtrip".into(),
            "126 us".into(),
            format!("{rtt_us:.0} us"),
        ],
        vec![
            "lock acquire (region incl. fork/join)".into(),
            format!("{lock_us_paper} us"),
            format!("{lock_region_us:.0} us"),
        ],
        vec![
            format!("diff fetch ({} words)", diff_us[0].0),
            "313-1544 us".into(),
            format!("{:.0} us", diff_us[0].1),
        ],
        vec![
            format!("diff fetch ({} words)", diff_us[1].0),
            "313-1544 us".into(),
            format!("{:.0} us", diff_us[1].1),
        ],
        vec![
            format!("diff fetch ({} words)", diff_us[2].0),
            "313-1544 us".into(),
            format!("{:.0} us", diff_us[2].1),
        ],
        vec![
            "full 4K page transfer".into(),
            "1308 us".into(),
            format!("{page_us:.0} us"),
        ],
    ];
    print_table(
        "§5.1 micro-costs: paper vs simulated NOW",
        &["quantity", "paper", "ours"],
        &rows,
    );
    println!(
        "\nNote: 'ours' for lock/diff/page includes one fork/join pair around the probe\n\
         (the DSM has no standalone probe), so compare growth with diff size and the\n\
         relative ordering (roundtrip < lock < small diff < large diff ~ page)."
    );
}
