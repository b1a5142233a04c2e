//! The `NetModel`/`CostModel` delay paths under a virtual clock.
//!
//! These paths (`sender_time`, `latency`, migration streams, spawn
//! delays) were previously untestable without burning real wall time —
//! the ROADMAP tracked that as an open item. Under
//! [`Clock::new_virtual`] every charged delay is exact on the virtual
//! timeline and (near-)free in wall time, so the assertions are
//! equalities, not load-sensitive bounds.

use bytes::Bytes;
use nowmp_net::{CostModel, Gpid, HostId, NetModel, Network};
use nowmp_util::{Clock, JoinHandle, Tick};
use std::time::{Duration, Instant};

/// A simulation thread on `host` that sends `len` bytes to `dst` and
/// reports the tick at which its send returned.
fn spawn_sender(net: &Network, host: u16, dst: Gpid, len: usize) -> JoinHandle<Tick> {
    let ep = net.register(HostId(host));
    let clock = net.clock().clone();
    net.clock().spawn(format!("sender@{host}"), move || {
        ep.send(dst, Bytes::from(vec![0u8; len])).unwrap();
        clock.now()
    })
}

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

/// The outbound link is an ordered reservation: `k` senders that reach
/// one host's wire at the same tick go back to back with no idle wire
/// between them, whatever order the host scheduler ran them in — each
/// returns at the exact end of its slot.
#[test]
fn same_host_senders_finish_at_exact_multiples() {
    for k in [2u32, 3, 8] {
        let model = NetModel::paper_1999();
        let d = model.sender_time(4096);
        let net = virtual_net(model, 2);
        let clock = net.clock().clone();
        let sink = net.register(HostId(1));
        // On the books before the first spawn: time holds still until
        // every sender exists, so they all ask at tick 0.
        let _me = clock.participant();
        let senders: Vec<_> = (0..k)
            .map(|_| spawn_sender(&net, 0, sink.gpid(), 4096))
            .collect();
        let mut done: Vec<Tick> = senders.into_iter().map(|h| h.join().unwrap()).collect();
        done.sort();
        let expect: Vec<Tick> = (1..=k).map(|i| Tick::ZERO + d * i).collect();
        assert_eq!(done, expect, "k = {k}");
        assert_eq!(clock.forced_advances(), 0);
    }
}

/// A send queued behind a whole-second migration stream sleeps once, to
/// the end of its slot: it returns at exactly `stream + d`, and the
/// clock never needs its watchdog to get there.
#[test]
fn send_behind_a_migration_stream_finishes_at_its_slot() {
    let model = NetModel::paper_1999();
    let d = model.sender_time(64);
    let net = virtual_net(model, 2);
    let clock = net.clock().clone();
    let a = net.register(HostId(0));
    let b = net.register(HostId(1));
    let _me = clock.participant();
    let net2 = net.clone();
    // 8.1 MB at the paper's 8.1 MB/s: one second on host 0's wire.
    let stream = clock.spawn("migration", move || {
        net2.charge_migration(HostId(0), HostId(1), 8_100_000)
    });
    // Let the stream take the wire first; the send then finds it busy.
    clock.sleep(Duration::from_micros(1));
    a.send(b.gpid(), Bytes::from(vec![0u8; 64])).unwrap();
    let sent_at = clock.now();
    let stream = stream.join().unwrap();
    assert!(stream >= Duration::from_secs(1), "{stream:?}");
    assert_eq!(sent_at, Tick::ZERO + stream + d);
    assert_eq!(clock.forced_advances(), 0);
}

/// The calibration the Table 1/2 pins rest on: a send that finds its
/// wire free returns after exactly `sender_time` and is delivered one
/// `latency` later. (The request/reply form of the same statement is
/// `sender_time_and_latency_are_exact_on_roundtrip`.)
#[test]
fn uncontended_send_costs_sender_time_then_latency() {
    let model = NetModel::paper_1999();
    let (st, lat) = (model.sender_time(4096), model.latency());
    let net = virtual_net(model, 2);
    let clock = net.clock().clone();
    let a = net.register(HostId(0));
    let b = net.register(HostId(1));
    let _me = clock.participant();
    for round in 0..3u32 {
        // Each send finds the wire free again: no reservation outlives
        // the sender's own sleep.
        let t0 = Tick::ZERO + (st + lat) * round;
        a.send(b.gpid(), Bytes::from(vec![0u8; 4096])).unwrap();
        assert_eq!(clock.now(), t0 + st);
        b.recv().unwrap();
        assert_eq!(clock.now(), t0 + st + lat);
    }
}

/// Senders on *different* hosts do not share an outbound wire, so they
/// all finish serializing together — and then drain one at a time
/// through the receiver's inbound port (`HostRec::receive_at`), as they
/// did before the outbound link became a reservation.
#[test]
fn converging_senders_still_drain_through_receiver_admission() {
    let model = NetModel::paper_1999();
    let (st, lat, occ) = (
        model.sender_time(256),
        model.latency(),
        model.receive_time(256),
    );
    let k = 5u16;
    let net = virtual_net(model, usize::from(k) + 1);
    let clock = net.clock().clone();
    let sink = net.register(HostId(0));
    let _me = clock.participant();
    let senders: Vec<_> = (1..=k)
        .map(|h| spawn_sender(&net, h, sink.gpid(), 256))
        .collect();
    for (i, h) in senders.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), Tick::ZERO + st, "sender {i}");
    }
    // The `k` same-tick arrivals take the admission slots `c`, `c + occ`,
    // … in whatever order they reached the port, and queue in the mailbox
    // in whatever order they were sent on; so each `recv` returns at one
    // of the slot ends, never earlier than the one before, and the last
    // at exactly the end of the `k`-th slot.
    let slots: Vec<Tick> = (0..u32::from(k))
        .map(|i| Tick::ZERO + st + lat + occ * i)
        .collect();
    let arrivals: Vec<Tick> = (0..k)
        .map(|_| {
            sink.recv().unwrap();
            clock.now()
        })
        .collect();
    assert!(arrivals.iter().all(|t| slots.contains(t)), "{arrivals:?}");
    assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "{arrivals:?}");
    assert_eq!(arrivals.last(), slots.last(), "{arrivals:?}");
    assert_eq!(clock.forced_advances(), 0);
}
