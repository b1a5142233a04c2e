//! The `NetModel`/`CostModel` delay paths under a virtual clock.
//!
//! These paths (`sender_time`, `latency`, migration streams, spawn
//! delays) were previously untestable without burning real wall time —
//! the ROADMAP tracked that as an open item. Under
//! [`Clock::new_virtual`] every charged delay is exact on the virtual
//! timeline and (near-)free in wall time, so the assertions are
//! equalities, not load-sensitive bounds.

use bytes::Bytes;
use nowmp_net::{CostModel, HostId, NetModel, Network};
use nowmp_util::Clock;
use std::time::{Duration, Instant};

fn virtual_net(model: NetModel, hosts: usize) -> Network {
    Network::with_clock(
        hosts,
        1,
        model,
        CostModel::paper_1999(),
        Clock::new_virtual(),
    )
}

#[test]
fn spawn_delay_is_exact_and_free() {
    let net = virtual_net(NetModel::paper_1999(), 2);
    let wall = Instant::now();
    let t0 = net.clock().now();
    let d = net.charge_spawn();
    assert_eq!(d, Duration::from_millis(700), "paper spawn delay");
    assert_eq!(net.clock().elapsed_since(t0), d, "virtual charge is exact");
    assert!(
        wall.elapsed() < Duration::from_millis(300),
        "0.7 s spawn took {:?} wall",
        wall.elapsed()
    );
}

#[test]
fn migration_stream_is_exact_and_free() {
    let net = virtual_net(NetModel::paper_1999(), 2);
    // Paper §5.3: a ~54 MB Jacobi image takes ~6.7 s at 8.1 MB/s.
    let bytes = 54 * 1000 * 1000;
    let t0 = net.clock().now();
    let wall = Instant::now();
    let d = net.charge_migration(HostId(0), HostId(1), bytes);
    assert!((d.as_secs_f64() - 6.67).abs() < 0.1, "{d:?}");
    assert_eq!(net.clock().elapsed_since(t0), d);
    assert!(wall.elapsed() < Duration::from_millis(300));
    let s = net.stats();
    assert_eq!(s.links[0].bytes_out, bytes as u64);
    assert_eq!(s.links[1].bytes_in, bytes as u64);
}

#[test]
fn sender_time_and_latency_are_exact_on_roundtrip() {
    let model = NetModel::paper_1999();
    let net = virtual_net(model.clone(), 2);
    let clock = net.clock().clone();
    let a = net.register(HostId(0));
    let b = net.register(HostId(1));
    let b_gpid = b.gpid();
    // A simulation thread: on the clock's books from `spawn`, so
    // virtual time holds still while it runs its (zero-virtual-cost)
    // handler.
    let server = clock.spawn("server", move || {
        let inc = b.recv().unwrap();
        inc.replier.unwrap().reply(Bytes::from(vec![0u8; 4]));
    });
    let t0 = clock.now();
    let reply = a.call(b_gpid, Bytes::from(vec![0u8; 16])).unwrap();
    assert_eq!(reply.len(), 4);
    let rtt = clock.elapsed_since(t0);
    // Request: sender serialization + overhead, then propagation; the
    // reply pays the same with its own payload size. Every term is
    // exact on the virtual timeline.
    let expect = model.sender_time(16) + model.latency() + model.sender_time(4) + model.latency();
    assert_eq!(rtt, expect, "virtual roundtrip must be exact");
    server.join().unwrap();
}

#[test]
fn delay_paths_are_deterministic_across_runs() {
    let run = || {
        let model = NetModel::paper_1999();
        let net = virtual_net(model, 2);
        let clock = net.clock().clone();
        let a = net.register(HostId(0));
        let b = net.register(HostId(1));
        let b_gpid = b.gpid();
        let server = clock.spawn("server", move || {
            for _ in 0..20 {
                let inc = b.recv().unwrap();
                inc.replier.unwrap().reply(inc.payload);
            }
        });
        for k in 0..20u32 {
            let msg = Bytes::from(vec![0u8; (k % 7) as usize + 1]);
            a.call(b_gpid, msg).unwrap();
        }
        server.join().unwrap();
        net.charge_spawn();
        net.charge_migration(HostId(0), HostId(1), 123_456);
        clock.now()
    };
    assert_eq!(run(), run(), "virtual timeline must be reproducible");
}

/// Acceptance: the paper's full 0.7 s `spawn_delay` plus a volley of
/// 63 µs-latency exchanges completes in well under a second of wall
/// time, with the modeled total exact on the virtual timeline.
#[test]
fn paper_scale_delays_cost_no_wall_time() {
    let model = NetModel::paper_1999();
    let net = virtual_net(model.clone(), 2);
    let clock = net.clock().clone();
    let a = net.register(HostId(0));
    let b = net.register(HostId(1));
    let b_gpid = b.gpid();
    let server = clock.spawn("server", move || loop {
        let inc = b.recv().unwrap();
        if inc.payload.is_empty() {
            break;
        }
        inc.replier.unwrap().reply(Bytes::from(vec![0u8; 1]));
    });

    let wall = Instant::now();
    let t0 = clock.now();
    net.charge_spawn(); // 0.7 s of modeled process creation
    let rounds = 50;
    for _ in 0..rounds {
        a.call(b_gpid, Bytes::from(vec![0u8; 1])).unwrap();
    }
    let modeled = clock.elapsed_since(t0);
    let expect = CostModel::paper_1999().spawn_time()
        + (model.sender_time(1) + model.latency() + model.sender_time(1) + model.latency())
            * rounds;
    assert_eq!(modeled, expect);
    assert!(
        modeled > Duration::from_millis(700),
        "modeled time covers the spawn delay: {modeled:?}"
    );
    assert!(
        wall.elapsed() < Duration::from_secs(1),
        "virtual run took {:?} wall",
        wall.elapsed()
    );
    a.send(b_gpid, Bytes::new()).unwrap();
    server.join().unwrap();
}

/// ISSUE 5: relay hops occupy *their own* host links, so a fanned-out
/// broadcast overlaps wire time that a flat broadcast serializes on the
/// origin's link. Four ranks, binomial shape (0 → {2, 1}, 2 → {3}): the
/// makespan is two serialized sends plus two latencies — strictly less
/// than the three serialized sends the flat broadcast would cost —
/// and the per-link counters show the forwarding charged to the relay.
#[test]
fn relay_hops_occupy_their_own_links_and_overlap() {
    let model = NetModel::paper_1999();
    let st = model.sender_time(4096);
    let lat = model.latency();
    let net = virtual_net(model, 4);
    let clock = net.clock().clone();
    let e0 = net.register(HostId(0));
    let e1 = net.register(HostId(1));
    let e2 = net.register(HostId(2));
    let e3 = net.register(HostId(3));
    let (g1, g2, g3) = (e1.gpid(), e2.gpid(), e3.gpid());
    let payload = Bytes::from(vec![0u8; 4096]);

    // Relay thread: rank 2 forwards to rank 3 on host 2's link, in
    // parallel with the origin's second send.
    let p = payload.clone();
    let relay = clock.spawn("relay", move || {
        let inc = e2.recv().unwrap();
        assert_eq!(inc.payload.len(), 4096);
        e2.send(g3, p).unwrap();
    });

    let _participant = clock.participant();
    let t0 = clock.now();
    e0.send(g2, payload.clone()).unwrap(); // relay first: critical path
    e0.send(g1, payload).unwrap();
    e1.recv().unwrap();
    e3.recv().unwrap();
    let makespan = clock.elapsed_since(t0);
    relay.join().unwrap();

    assert!(
        makespan < st * 3,
        "tree makespan {makespan:?} must beat 3 serialized sends ({:?})",
        st * 3
    );
    assert!(
        makespan >= st * 2,
        "two sends serialize on the origin's link: {makespan:?}"
    );
    assert!(
        makespan <= st * 2 + lat * 3,
        "makespan {makespan:?} should be ~2 sends + 2 latencies"
    );

    let s = net.stats();
    let wire = (4096 + 42) as u64;
    assert_eq!(s.links[0].bytes_out, 2 * wire, "origin sends twice");
    assert_eq!(s.links[2].bytes_out, wire, "the relay hop bills host 2");
    assert_eq!(s.links[2].bytes_in, wire);
    assert_eq!(s.links[3].bytes_in, wire);
}
