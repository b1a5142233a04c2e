//! Criterion micro-benchmarks of the DSM protocol primitives: diff
//! creation/application, twin snapshots, vector clocks, the wire codec,
//! zero-run compression, CRC, the full inbound apply path, and the
//! sharded page table (uncontended and under cross-thread load).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nowmp_tmk::diff::Diff;
use nowmp_tmk::page::{PageBuf, PageMeta, PageState};
use nowmp_tmk::types::Vc;
use nowmp_tmk::PageTable;
use nowmp_util::wire::Wire;
use nowmp_util::{crc32, zrle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn bench_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff");
    for &changed in &[1usize, 64, 512] {
        let twin = vec![0u64; 512]; // one 4 KB page
        let page = PageBuf::from_words(&twin);
        for i in 0..changed {
            page.store(i * (512 / changed.max(1)) % 512, i as u64 + 1);
        }
        g.bench_function(&format!("create_4k_{changed}w"), |b| {
            b.iter(|| Diff::create(black_box(&twin), black_box(&page), 0))
        });
        let d = Diff::create(&twin, &page, 0);
        let target = PageBuf::from_words(&twin);
        g.bench_function(&format!("apply_4k_{changed}w"), |b| {
            b.iter(|| d.apply(black_box(&target)))
        });
        g.bench_function(&format!("wire_roundtrip_{changed}w"), |b| {
            b.iter(|| {
                let bytes = d.to_wire();
                Diff::from_wire(black_box(&bytes)).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_twin(c: &mut Criterion) {
    let page = PageBuf::new(512);
    c.bench_function("twin_snapshot_4k", |b| {
        b.iter(|| black_box(&page).snapshot())
    });
}

fn bench_vc(c: &mut Criterion) {
    let mut a = Vc::new(8);
    let mut bb = Vc::new(8);
    for i in 0..8 {
        a.set(i, (i as u32) * 3);
        bb.set(i, 20 - (i as u32) * 2);
    }
    c.bench_function("vc_merge_8", |b| {
        b.iter(|| {
            let mut x = a.clone();
            x.merge(black_box(&bb));
            x
        })
    });
    c.bench_function("vc_dominates_8", |b| {
        b.iter(|| black_box(&a).dominates(black_box(&bb)))
    });
}

fn bench_zrle(c: &mut Criterion) {
    let mut g = c.benchmark_group("zrle");
    let zeros = vec![0u64; 512];
    let mut sparse = vec![0u64; 512];
    for i in (0..512).step_by(16) {
        sparse[i] = i as u64 + 1;
    }
    let dense: Vec<u64> = (0..512u64).map(|i| i | 1).collect();
    for (name, data) in [("zero", &zeros), ("sparse", &sparse), ("dense", &dense)] {
        g.bench_function(&format!("compress_4k_{name}"), |b| {
            b.iter(|| zrle::compress(black_box(data)))
        });
        let buf = zrle::compress(data);
        g.bench_function(&format!("decompress_4k_{name}"), |b| {
            b.iter(|| zrle::decompress(black_box(&buf)).unwrap())
        });
    }
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let data = vec![0xABu8; 4096];
    c.bench_function("crc32_4k", |b| b.iter(|| crc32(black_box(&data))));
}

/// The full inbound path a diff fetch reply takes: wire decode plus
/// apply into the live page — what every early diff (pushed,
/// collected, piggybacked) pays on its way through the store.
fn bench_apply_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("apply_path");
    for &changed in &[1usize, 64, 512] {
        let twin = vec![0u64; 512];
        let page = PageBuf::from_words(&twin);
        for i in 0..changed {
            page.store(i * (512 / changed.max(1)) % 512, i as u64 + 1);
        }
        let bytes = Diff::create(&twin, &page, 0).to_wire();
        let target = PageBuf::from_words(&twin);
        g.bench_function(&format!("decode_apply_4k_{changed}w"), |b| {
            b.iter(|| {
                let d = Diff::from_wire(black_box(&bytes)).unwrap();
                d.apply(black_box(&target));
                d.words()
            })
        });
        // Apply alone, decode excluded — the lane that regressed 2×
        // when descriptors and payload lived in separate allocations
        // (two cache streams per apply). The header-prefixed layout
        // pins it back to a single-buffer walk.
        let d = Diff::from_wire(&bytes).unwrap();
        g.bench_function(&format!("apply_only_4k_{changed}w"), |b| {
            b.iter(|| d.apply(black_box(&target)))
        });
    }
    g.finish();
}

/// The fault-path metadata flip both table variants under test do per
/// page (same shape as the `hotpath` bin's contention lanes).
#[inline]
fn touch(meta: &mut PageMeta, round: u64) {
    meta.state = PageState::Write;
    meta.dirty = !meta.dirty;
    meta.zero_lent = round.is_multiple_of(2);
    meta.state = PageState::Read;
}

/// Page-table guard acquisition cost: a 64-page sweep through shard
/// guards vs the coarse single mutex it replaced, uncontended and
/// with a background thread hammering *other* pages. The sharded
/// sweep should be insensitive to the load; the coarse one queues.
fn bench_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("table");

    let table = Arc::new(PageTable::new());
    table.ensure(1024, nowmp_net::Gpid(1));
    let coarse: Arc<Mutex<Vec<PageMeta>>> = Arc::new(Mutex::new(
        (0..1024)
            .map(|_| PageMeta::new(nowmp_net::Gpid(1)))
            .collect(),
    ));

    let mut round = 0u64;
    g.bench_function("sharded_touch_64p", |b| {
        b.iter(|| {
            round += 1;
            for p in 0..64u32 {
                touch(&mut table.guard(p), round);
            }
        })
    });
    g.bench_function("coarse_touch_64p", |b| {
        b.iter(|| {
            round += 1;
            for p in 0..64usize {
                touch(&mut coarse.lock()[p], round);
            }
        })
    });

    // Same sweeps with one background thread touching pages 512..576
    // (disjoint shard blocks from the measured 0..64 sweep).
    let stop = Arc::new(AtomicBool::new(false));
    let bg = {
        let table = Arc::clone(&table);
        let coarse = Arc::clone(&coarse);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut r = 0u64;
            while !stop.load(Ordering::Acquire) {
                r += 1;
                for p in 512..576u32 {
                    touch(&mut table.guard(p), r);
                    touch(&mut coarse.lock()[p as usize], r);
                }
            }
        })
    };
    g.bench_function("sharded_touch_64p_under_load", |b| {
        b.iter(|| {
            round += 1;
            for p in 0..64u32 {
                touch(&mut table.guard(p), round);
            }
        })
    });
    g.bench_function("coarse_touch_64p_under_load", |b| {
        b.iter(|| {
            round += 1;
            for p in 0..64usize {
                touch(&mut coarse.lock()[p], round);
            }
        })
    });
    stop.store(true, Ordering::Release);
    bg.join().unwrap();
    g.finish();
}

criterion_group!(
    benches,
    bench_diff,
    bench_twin,
    bench_vc,
    bench_zrle,
    bench_crc,
    bench_apply_path,
    bench_table
);
criterion_main!(benches);
