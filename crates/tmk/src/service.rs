//! The per-process **service thread** — TreadMarks' SIGIO handler.
//!
//! Every process runs one service thread that owns the endpoint's
//! receive side. Protocol requests (pages, diffs, records, locks) are
//! answered inline, each under the shared [`ProcCore`]'s one mutex, so
//! serving a peer and the application thread's own accesses never
//! overlap; *control* messages (forks, joins, GC steps, adaptation
//! commits) are forwarded to the application thread through the control
//! channel, preserving their [`nowmp_net::Replier`] so the application
//! thread can acknowledge them when it is ready.
//!
//! What a page, diff or records request is answered with — the epoch
//! check, the subscription, the reply — is [`ProcCore::serve`]'s; this
//! thread decodes, holds the reply handle, sends and counts what goes
//! unserved. Lock requests stay here, since a queued one keeps its
//! [`Replier`] until the grant.
//!
//! The service thread is also the process's *push sender*: diffs that
//! an interval close queued for subscribed readers leave from here, one
//! `DiffPush` per turn of the loop with the inbox drained in between, so
//! the application thread stays free to relay the next fork and no
//! request waits for more than one push. What a close holds back, and
//! until when, is the [push gate](crate::push)'s rule; the service
//! thread counts the aggregates it forwards into it, and a `RecordsReq`
//! it answers releases the held pushes, since its reply may hand out
//! the notices of the held close.

use crate::config::DsmConfig;
use crate::core::{this_epoch, Dropped, LockGrant, LockWaiter, ProcCore};
use crate::msg::Msg;
use crate::stats::DsmStats;
use nowmp_net::{Endpoint, Replier};
use nowmp_util::MailboxSender;
use parking_lot::Mutex;
use std::sync::Arc;

/// A control message forwarded to the application thread.
pub struct Ctrl {
    /// The decoded message.
    pub msg: Msg,
    /// The encoded payload exactly as received. Tree relays forward
    /// this verbatim (`Fork`/`JoinInit` payloads are
    /// receiver-independent), avoiding a re-encode per hop.
    pub raw: bytes::Bytes,
    /// Reply handle when the sender awaits an acknowledgement.
    pub replier: Option<Replier>,
}

/// Messages drained per wakeup: enough to amortize the sleep/wake and
/// dispatch across a fork-time or barrier-time burst, small enough to
/// keep reply latency for the first request low.
const SERVICE_BURST: usize = 16;

/// Run the service loop until the endpoint disconnects. A long-lived
/// simulation thread: start it with [`nowmp_util::Clock::spawn`], so
/// virtual time holds still while a request is being served.
///
/// A message it cannot serve — an undecodable payload, a request kind
/// without a reply handle, a reply kind, a diff request naming a diff
/// we never created — is dropped and counted in
/// [`DsmStats::malformed_dropped`]; a request from another epoch than
/// ours, in [`DsmStats::stale_dropped`]. The loop keeps serving.
pub fn service_loop(
    endpoint: Arc<Endpoint>,
    core: Arc<Mutex<ProcCore>>,
    ctrl_tx: MailboxSender<Ctrl>,
) {
    // The counters and the configuration outlive every epoch: taken
    // once, so a drop is counted and a reply encoded without the lock.
    let (stats, cfg) = {
        let c = core.lock();
        (Arc::clone(&c.stats), c.cfg.clone())
    };
    let serve = |inc| {
        if let Err(dropped) = serve_one(inc, &core, &cfg, &ctrl_tx) {
            dropped.count(&stats);
        }
    };
    let mut burst: Vec<nowmp_net::Incoming> = Vec::with_capacity(SERVICE_BURST);
    loop {
        burst.clear();
        // Returns on a message's arrival or at the tick the application
        // thread raises its loopback wake (pushes queued; the burst may
        // then be empty).
        if endpoint.recv_burst(SERVICE_BURST, &mut burst).is_err() {
            break;
        }
        burst.drain(..).for_each(serve);
        // After every burst, but none a close still holds: a close's
        // pushes wait for the synchronization message that follows it
        // (an aggregator's last child's arrival wakes us, and its own
        // aggregate must not queue behind its pushes). The
        // application thread's wake releases them, and so does a
        // `RecordsReq` we answer, whose reply may hand out the notice
        // of a held close to a reader parked on the push
        // (`stress.rs::a_joined_aggregator_pushes_what_its_records_announce`).
        // One push per turn, the inbox drained in between: a `DiffReq`,
        // a `LockReq` or a `Fork` waiting to be forwarded waits for at
        // most one push. (Only for what has *arrived*: `try_recv`
        // hands out a message at its arrival tick and leaves one still
        // on the wire queued, so our outbound link does not idle while
        // the next push could go.)
        loop {
            // The core guard drops at the end of this statement, before
            // the send.
            let Some((dst, payload, diffs)) = core.lock().push.next_push() else {
                break;
            };
            // Counted before the send, so a reader can never book a
            // hit or a waste ahead of the `sent` it belongs to.
            DsmStats::add(&stats.push_sent, diffs);
            DsmStats::add(&stats.push_bytes, payload.len() as u64);
            // A reader that left the network mid-epoch is past caring.
            let _ = endpoint.send_push(dst, payload);
            while let Some(inc) = endpoint.try_recv() {
                serve(inc);
            }
        }
    }
}

/// Handle one incoming message (request answered inline, control
/// forwarded to the application thread). An `Err` says why it cannot
/// be served: the caller drops and counts it. A release of a lock its
/// sender does not hold is dropped and counted by the manager
/// ([`ProcCore::lock_release`]).
fn serve_one(
    inc: nowmp_net::Incoming,
    core: &Arc<Mutex<ProcCore>>,
    cfg: &DsmConfig,
    ctrl_tx: &MailboxSender<Ctrl>,
) -> Result<(), Dropped> {
    let msg = Msg::decode(&inc.payload, cfg).map_err(|_| Dropped::Malformed)?;
    if msg.is_control() {
        if let Msg::JoinArrive { epoch, .. } = msg {
            let mut c = core.lock();
            let ours = c.epoch();
            // One of another epoch is dropped and counted where the
            // collection meets it (`collect_joins`).
            let _stale = c.push.subtree_arrived(epoch, ours);
        }
        // Forward to the application thread; if it has exited (post
        // Terminate), drop silently — late control traffic is
        // possible during teardown.
        let _ = ctrl_tx.send(Ctrl {
            msg,
            raw: inc.payload,
            replier: inc.replier,
        });
        return Ok(());
    }
    match msg {
        Msg::ConnHello { .. } => {
            if let Some(r) = inc.replier {
                r.reply(Msg::Ack.encode(cfg));
            }
        }
        Msg::PageReq { .. } | Msg::DiffReq { .. } | Msg::RecordsReq { .. } => {
            let replier = inc.replier.ok_or(Dropped::Malformed)?;
            // The core guard drops at the end of this statement, so the
            // reply is encoded and sent without it.
            let rep = core.lock().serve(inc.src, &msg)?;
            replier.reply(rep.encode(cfg));
        }
        Msg::DiffPush { epoch, diffs } => core.lock().deposit_push(epoch, inc.src, diffs),
        Msg::LockReq { epoch, lock } => {
            let replier = inc.replier.ok_or(Dropped::Malformed)?;
            let grant = {
                let mut c = core.lock();
                this_epoch(epoch, c.epoch())?;
                c.lock_acquire(lock, inc.src, LockWaiter::Remote(replier))
            };
            deliver_grant(grant, cfg);
        }
        Msg::LockRelease { epoch, lock } => {
            let grant = {
                let mut c = core.lock();
                this_epoch(epoch, c.epoch())?;
                c.lock_release(lock, inc.src)
            };
            deliver_grant(grant, cfg);
        }
        _ => return Err(Dropped::Malformed),
    }
    Ok(())
}

/// Dispatch a lock grant decided by the manager state machine.
pub fn deliver_grant(grant: Option<LockGrant>, cfg: &DsmConfig) {
    match grant {
        None => {}
        Some(LockGrant::Remote(replier, prev)) => {
            replier.reply(Msg::LockRep { prev }.encode(cfg));
        }
        Some(LockGrant::Local(tx, prev)) => {
            // The local application thread is parked on this mailbox.
            let _ = tx.send(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsmConfig;
    use crate::stats::DsmStats;
    use nowmp_net::{Gpid, HostId, NetModel, Network};
    use nowmp_util::wire::Wire;

    fn spawn_proc(
        net: &Network,
        host: u16,
    ) -> (
        Arc<Endpoint>,
        Arc<Mutex<ProcCore>>,
        nowmp_util::MailboxReceiver<Ctrl>,
        Gpid,
    ) {
        let ep = Arc::new(net.register(HostId(host)));
        let gpid = ep.gpid();
        let core = Arc::new(Mutex::new(ProcCore::new(
            DsmConfig {
                page_size: 64,
                ..DsmConfig::test_small()
            },
            gpid,
            DsmStats::new_shared(),
            gpid,
        )));
        let (tx, rx) = nowmp_util::mailbox(ep.clock());
        {
            let (ep, core) = (Arc::clone(&ep), Arc::clone(&core));
            net.clock()
                .spawn(format!("svc-{gpid}"), move || service_loop(ep, core, tx));
        }
        (ep, core, rx, gpid)
    }

    /// A `PageReq` of epoch 0, as a faulting peer sends it.
    fn page_req(page: crate::types::PageId, subscribe: bool) -> bytes::Bytes {
        Msg::PageReq {
            epoch: 0,
            page,
            subscribe,
        }
        .to_bytes()
    }

    /// Serve page 0 in `c` the way a `PageReq` from `src` is served:
    /// the page is shared from then on, and a marked one subscribes `src`.
    fn serve_page0(c: &mut ProcCore, src: Gpid, subscribe: bool) {
        let req = Msg::PageReq {
            epoch: 0,
            page: 0,
            subscribe,
        };
        c.serve(src, &req)
            .expect("a page request of our epoch is served");
    }

    #[test]
    fn page_request_served_while_idle() {
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _gpid_b) = spawn_proc(&net, 1);

        // A materializes and writes a page locally.
        {
            let mut c = core_a.lock();
            let crate::core::AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
                panic!()
            };
            buf.store(2, 1234);
        }
        // B fetches it through the wire.
        let rep = ep_b.call(gpid_a, page_req(0, false)).unwrap();
        let Msg::PageRep {
            words, redirect, ..
        } = Msg::from_wire(&rep).unwrap()
        else {
            panic!()
        };
        assert!(redirect.is_none());
        assert_eq!(words[2], 1234);
        // A's page is now shared and twinned (it was exclusive-dirty).
        let c = core_a.lock();
        assert!(c.pages[0].shared);
        assert!(c.pages[0].twin.is_some());
    }

    #[test]
    fn a_page_request_waits_for_the_core_lock() {
        // One lock per process: a PageReq, even for an already-shared
        // page with a copy, is served under the core mutex, so it waits
        // while the application thread sits inside a critical section.
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _g) = spawn_proc(&net, 1);

        // Materialize + write page 0 on A, then serve once so it is
        // shared with a copy.
        {
            let mut c = core_a.lock();
            let crate::core::AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
                panic!()
            };
            buf.store(0, 77);
            serve_page0(&mut c, Gpid(99), false);
        }
        let words_of = |rep: &[u8]| match Msg::from_wire(rep).unwrap() {
            Msg::PageRep {
                words, redirect, ..
            } => {
                assert!(redirect.is_none());
                words
            }
            other => panic!("expected PageRep, got {other:?}"),
        };
        let before = words_of(&ep_b.call(gpid_a, page_req(0, false)).unwrap());
        assert_eq!(before[0], 77);

        // Now hold A's core mutex hostage and fetch again.
        let hostage = core_a.lock();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let fetch = std::thread::spawn(move || {
            let rep = ep_b.call(gpid_a, page_req(0, false)).unwrap();
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
            rep
        });
        let answered = nowmp_util::wait_for(std::time::Duration::from_millis(100), || {
            done.load(std::sync::atomic::Ordering::SeqCst)
        });
        drop(hostage);
        let rep = fetch.join().unwrap();
        assert!(!answered, "a PageReq was answered under a held core mutex");
        assert_eq!(words_of(&rep), before, "answered with the same words");
    }

    #[test]
    fn a_marked_page_request_subscribes_and_is_acknowledged() {
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _g) = spawn_proc(&net, 1);
        // A shared page with a copy.
        {
            let mut c = core_a.lock();
            c.team = crate::types::Team::new(0, vec![gpid_a, ep_b.gpid()]);
            c.vc = crate::types::Vc::new(2);
            let _ = c.plan_access(0, false, false);
            serve_page0(&mut c, Gpid(99), false);
        }
        let ack = |subscribe| {
            let rep = ep_b.call(gpid_a, page_req(0, subscribe)).unwrap();
            match Msg::from_wire(&rep).unwrap() {
                Msg::PageRep { push_after, .. } => push_after,
                other => panic!("expected PageRep, got {other:?}"),
            }
        };
        assert_eq!(ack(false), None);
        assert!(core_a.lock().readers.is_empty());
        assert_eq!(ack(true), Some(0), "A has closed no interval");
        assert_eq!(core_a.lock().readers[&0], vec![1]);
    }

    #[test]
    fn malformed_input_is_dropped_and_counted() {
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _g) = spawn_proc(&net, 1);
        let fetch = || {
            let rep = ep_b
                .call_deadline(
                    gpid_a,
                    page_req(0, false),
                    std::time::Duration::from_secs(10),
                )
                .expect("the service thread still answers");
            assert!(matches!(Msg::from_wire(&rep), Ok(Msg::PageRep { .. })));
        };
        let dropped = || core_a.lock().stats.snapshot().malformed_dropped;

        fetch();
        assert_eq!(dropped(), 0, "a well-formed request is served");
        // Garbage, a request without a reply handle, a reply kind, an
        // arrival under the retired barrier-arrival tag 14, and a page
        // whose zero-run payload is cut short or counts more words
        // than a page holds.
        let page_rep = Msg::PageRep {
            applied: Vec::new(),
            words: Vec::new(),
            redirect: None,
            push_after: None,
        };
        let mut retired = Msg::JoinArrive {
            epoch: 0,
            pid: 1,
            vc: crate::types::Vc::new(2),
            records: Vec::new(),
            partials: Vec::new(),
        }
        .to_bytes()
        .to_vec();
        retired[0] = 14;
        let spp = core_a.lock().cfg.slots_per_page();
        let zero_page = |words| {
            Msg::PageRep {
                applied: Vec::new(),
                words,
                redirect: None,
                push_after: None,
            }
            .to_bytes()
        };
        let cut = zero_page(vec![0; spp]);
        let cut = bytes::Bytes::from(cut[..cut.len() - 2].to_vec());
        for payload in [
            bytes::Bytes::from_static(&[0xFF]),
            page_req(0, false),
            page_rep.to_bytes(),
            retired.into(),
            cut,
            zero_page(vec![0; spp + 1]),
        ] {
            ep_b.send(gpid_a, payload).unwrap();
        }
        // Served in arrival order, so this answer comes after all six.
        fetch();
        assert_eq!(dropped(), 6);
    }

    #[test]
    fn a_diff_run_past_the_page_is_dropped_and_counted() {
        use crate::records::Record;
        use crate::types::{Team, Vc};
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _g) = spawn_proc(&net, 1);
        // A holds a copy of page 0 (8 words) that lacks B's interval 1.
        {
            let mut c = core_a.lock();
            c.team = Team::new(0, vec![gpid_a, ep_b.gpid()]);
            c.vc = Vc::new(2);
            let _ = c.plan_access(0, false, false);
            let mut vc = Vc::new(2);
            vc.set(1, 1);
            let rec = Record {
                pid: 1,
                seq: 1,
                vc: vc.clone(),
                pages: vec![0],
            };
            c.learn(&vc, &[rec]);
        }
        // B pushes that interval's diff, naming word 100 of the page.
        let diff = Arc::new(crate::diff::Diff::of_run(100, &[7]));
        let push = Msg::DiffPush {
            epoch: 0,
            diffs: vec![(0, 1, diff)],
        };
        ep_b.send(gpid_a, push.to_bytes()).unwrap();
        // Served in arrival order, so this answer comes after the push.
        let timeout = std::time::Duration::from_secs(10);
        ep_b.call_deadline(gpid_a, page_req(0, false), timeout)
            .unwrap();
        // Nothing was deposited, so applying the page's diffs writes no
        // word past it: the page stays stale.
        let mut c = core_a.lock();
        c.apply_diffs(0);
        assert_eq!(c.pages[0].state, crate::page::PageState::Invalid);
        assert_eq!(c.stats.snapshot().malformed_dropped, 1);
    }

    #[test]
    fn a_request_for_a_diff_we_never_created_is_dropped_and_counted() {
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _g) = spawn_proc(&net, 1);
        // A closes interval 1 with a diff of page 0; B is a member, so
        // a marked request of B's would subscribe it.
        {
            let mut c = core_a.lock();
            c.team = crate::types::Team::new(0, vec![gpid_a, ep_b.gpid()]);
            c.vc = crate::types::Vc::new(2);
            let _ = c.plan_access(0, false, false);
            serve_page0(&mut c, Gpid(99), false); // shared, so the write twins
            let crate::core::AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
                panic!()
            };
            buf.store(0, 9);
            c.close_interval().unwrap();
        }
        let timeout = std::time::Duration::from_secs(10);
        // Seq 1 exists, seq 2 was never created.
        let req = Msg::DiffReq {
            epoch: 0,
            wants: vec![(0, 1), (0, 2)],
            subscribe: true,
            whole_if_smaller: false,
        };
        let answer = ep_b.call_deadline(gpid_a, req.to_bytes(), timeout);
        assert!(answer.is_err(), "an unservable request is not answered");
        // Served in arrival order, so this answer comes after the drop.
        let rep = ep_b.call_deadline(gpid_a, page_req(0, false), timeout);
        assert!(matches!(
            Msg::from_wire(&rep.unwrap()),
            Ok(Msg::PageRep { .. })
        ));
        let c = core_a.lock();
        let stats = c.stats.snapshot();
        assert_eq!((stats.malformed_dropped, stats.stale_dropped), (1, 0));
        assert!(c.readers.is_empty(), "nobody subscribed");
    }

    /// Send `req` — a request of epoch 1 to a server still in epoch 0,
    /// or a release of a lock its sender does not hold — from a peer,
    /// after `before` (the peer's current-epoch calls), and see it
    /// dropped: no reply reaches the asker, a current request behind it
    /// is still served, and it counts as stale, not malformed. Returns
    /// the server's core.
    fn assert_stale_dropped(before: &[Msg], req: Msg) -> Arc<Mutex<ProcCore>> {
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _g) = spawn_proc(&net, 1);
        let timeout = std::time::Duration::from_secs(10);
        for m in before {
            ep_b.call_deadline(gpid_a, m.to_bytes(), timeout).unwrap();
        }
        if let Msg::LockRelease { .. } = req {
            ep_b.send(gpid_a, req.to_bytes()).unwrap();
        } else {
            let answer = ep_b.call_deadline(gpid_a, req.to_bytes(), timeout);
            assert!(answer.is_err(), "a stale request is not answered");
        }
        // Served in arrival order, so this answer comes after `req`'s drop.
        let rep = ep_b.call_deadline(gpid_a, page_req(0, false), timeout);
        assert!(matches!(
            Msg::from_wire(&rep.unwrap()),
            Ok(Msg::PageRep { .. })
        ));
        let stats = core_a.lock().stats.snapshot();
        assert_eq!((stats.stale_dropped, stats.malformed_dropped), (1, 0));
        core_a
    }

    /// Whether lock 3 at `core` is free: an acquire is granted at once.
    fn lock_free(core: &Mutex<ProcCore>) -> bool {
        let (tx, _rx) = nowmp_util::mailbox(&nowmp_util::Clock::real());
        let grant = core.lock().lock_acquire(3, Gpid(99), LockWaiter::Local(tx));
        grant.is_some()
    }

    #[test]
    fn a_stale_page_request_is_dropped_and_counted() {
        let req = Msg::PageReq {
            epoch: 1,
            page: 0,
            subscribe: false,
        };
        assert_stale_dropped(&[], req);
    }

    #[test]
    fn a_stale_diff_request_is_dropped_and_counted() {
        let req = Msg::DiffReq {
            epoch: 1,
            wants: vec![(0, 1)],
            subscribe: true,
            whole_if_smaller: false,
        };
        let core = assert_stale_dropped(&[], req);
        assert!(core.lock().readers.is_empty(), "nobody subscribed");
    }

    #[test]
    fn a_stale_records_request_is_dropped_and_counted() {
        let vc = crate::types::Vc::new(2);
        assert_stale_dropped(&[], Msg::RecordsReq { epoch: 1, vc });
    }

    #[test]
    fn a_stale_lock_request_is_dropped_and_counted() {
        let core = assert_stale_dropped(&[], Msg::LockReq { epoch: 1, lock: 3 });
        assert!(lock_free(&core), "the stale request took no lock");
    }

    #[test]
    fn a_stale_lock_release_is_dropped_and_counted() {
        let acquire = Msg::LockReq { epoch: 0, lock: 3 };
        let core = assert_stale_dropped(&[acquire], Msg::LockRelease { epoch: 1, lock: 3 });
        assert!(!lock_free(&core), "the lock stays with its holder");
    }

    #[test]
    fn a_release_by_a_non_holder_is_dropped_and_counted() {
        // The peer releases a lock nobody granted it: its release names
        // it (the envelope's sender), not the holder.
        let core = assert_stale_dropped(&[], Msg::LockRelease { epoch: 0, lock: 3 });
        assert!(lock_free(&core));
    }

    /// A writer (A, with its service thread) whose close queued one
    /// `DiffPush` for a subscribed reader (B, a bare endpoint), and a
    /// third endpoint (C) to send A requests. Returns A's context (its
    /// application-thread side), B and C.
    fn held_push() -> (crate::ctx::TmkCtx, Endpoint, Endpoint) {
        let net = Network::new(3, NetModel::disabled());
        let (ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, ep_c) = (net.register(HostId(1)), net.register(HostId(2)));
        {
            let mut c = core_a.lock();
            c.team = crate::types::Team::new(0, vec![gpid_a, ep_b.gpid()]);
            c.vc = crate::types::Vc::new(2);
            let _ = c.plan_access(0, false, false);
            serve_page0(&mut c, ep_b.gpid(), true); // B subscribes
            let crate::core::AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
                panic!()
            };
            buf.store(0, 9);
            c.close_interval().unwrap();
            assert_eq!(c.push.queued().len(), 1, "the close queued B's push");
        }
        (crate::ctx::TmkCtx::new(core_a, ep_a, None), ep_b, ep_c)
    }

    /// Whether a `DiffPush` reaches `reader` within `within`.
    fn pushed(reader: &Endpoint, within: std::time::Duration) -> bool {
        nowmp_util::wait_for(within, || {
            reader
                .try_recv()
                .is_some_and(|inc| matches!(Msg::from_wire(&inc.payload), Ok(Msg::DiffPush { .. })))
        })
    }

    #[test]
    fn a_held_push_waits_for_the_wake() {
        let (ctx, reader, peer) = held_push();
        // A burst of the service thread's: the request is answered, and
        // the held push stays put.
        let rep = peer.call(ctx.gpid(), page_req(0, false)).unwrap();
        assert!(matches!(Msg::from_wire(&rep), Ok(Msg::PageRep { .. })));
        let short = std::time::Duration::from_millis(100);
        assert!(!pushed(&reader, short), "a burst released a held push");
        ctx.wake_pusher();
        assert!(pushed(&reader, std::time::Duration::from_secs(10)));
        assert!(ctx.core().lock().push.queued().is_empty());
    }

    #[test]
    fn a_records_reply_releases_held_pushes() {
        let (ctx, reader, peer) = held_push();
        let rep = peer.call(ctx.gpid(), page_req(0, false)).unwrap();
        assert!(matches!(Msg::from_wire(&rep), Ok(Msg::PageRep { .. })));
        let short = std::time::Duration::from_millis(100);
        assert!(!pushed(&reader, short), "a burst released a held push");
        // The reply hands out the held close's notice: its push follows
        // without a wake.
        let req = Msg::RecordsReq {
            epoch: 0,
            vc: crate::types::Vc::new(2),
        };
        let rep = peer.call(ctx.gpid(), req.to_bytes()).unwrap();
        let Ok(Msg::RecordsRep { records }) = Msg::from_wire(&rep) else {
            panic!("expected RecordsRep")
        };
        assert_eq!(records.len(), 1);
        assert!(pushed(&reader, std::time::Duration::from_secs(10)));
    }

    #[test]
    fn the_aggregate_completing_a_subtree_holds_the_close_pushes() {
        let (ctx, reader, peer) = held_push();
        // One child outstanding: the close's push is released (and only
        // waits for a burst to go).
        assert!(ctx.core().lock().push.await_subtree(1));
        let arrival = Msg::JoinArrive {
            epoch: 0,
            pid: 1,
            vc: crate::types::Vc::new(2),
            records: Vec::new(),
            partials: Vec::new(),
        };
        peer.send(ctx.gpid(), arrival.to_bytes()).unwrap();
        let short = std::time::Duration::from_millis(100);
        assert!(
            !pushed(&reader, short),
            "the push went ahead of our aggregate"
        );
        ctx.wake_pusher();
        assert!(pushed(&reader, std::time::Duration::from_secs(10)));
    }

    #[test]
    fn control_messages_reach_app_thread() {
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, _core_a, rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, gpid_b) = spawn_proc(&net, 1);

        ep_b.send(gpid_a, Msg::ReadyJoin { gpid: gpid_b }.to_bytes())
            .unwrap();
        let ctrl = rx_a
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        assert!(matches!(ctrl.msg, Msg::ReadyJoin { .. }));
        assert!(ctrl.replier.is_none());
    }

    #[test]
    fn remote_lock_protocol() {
        let net = Network::new(2, NetModel::disabled());
        let (_ep_mgr, core_mgr, _rx, mgr_gpid) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _g) = spawn_proc(&net, 1);

        // First acquire: immediate grant, no previous holder.
        let rep = ep_b
            .call(mgr_gpid, Msg::LockReq { epoch: 0, lock: 3 }.to_bytes())
            .unwrap();
        assert_eq!(Msg::from_wire(&rep).unwrap(), Msg::LockRep { prev: None });

        // Contended acquire from another proc: grant arrives only after release.
        let net2 = net.clone();
        let waiter = std::thread::spawn(move || {
            let ep_c = net2.register(HostId(1));
            let rep = ep_c
                .call(mgr_gpid, Msg::LockReq { epoch: 0, lock: 3 }.to_bytes())
                .unwrap();
            Msg::from_wire(&rep).unwrap()
        });
        // Condition wait: release only once the contending request is
        // provably queued at the manager.
        assert!(
            nowmp_util::wait_for(std::time::Duration::from_secs(5), || core_mgr
                .lock()
                .lock_waiters(3)
                == 1),
            "contending LockReq never queued at the manager"
        );
        ep_b.send(mgr_gpid, Msg::LockRelease { epoch: 0, lock: 3 }.to_bytes())
            .unwrap();
        let granted = waiter.join().unwrap();
        match granted {
            Msg::LockRep { prev } => assert_eq!(prev, Some(ep_b.gpid())),
            other => panic!("expected LockRep, got {other:?}"),
        }
    }

    #[test]
    fn records_request_served() {
        let net = Network::new(2, NetModel::disabled());
        let (_ep_a, core_a, _rx_a, gpid_a) = spawn_proc(&net, 0);
        let (ep_b, _core_b, _rx_b, _g) = spawn_proc(&net, 1);

        {
            let mut c = core_a.lock();
            c.team = crate::types::Team::new(0, vec![gpid_a, ep_b.gpid()]);
            c.vc = crate::types::Vc::new(2);
            let _ = c.plan_access(0, false, false);
            serve_page0(&mut c, Gpid(99), false); // shared
            let crate::core::AccessPlan::Ready { buf, .. } = c.plan_access(0, true, false) else {
                panic!()
            };
            buf.store(0, 9);
            c.close_interval().unwrap();
        }
        let rep = ep_b
            .call(
                gpid_a,
                Msg::RecordsReq {
                    epoch: 0,
                    vc: crate::types::Vc::new(2),
                }
                .to_bytes(),
            )
            .unwrap();
        let Msg::RecordsRep { records } = Msg::from_wire(&rep).unwrap() else {
            panic!()
        };
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].pages, vec![0]);
    }
}
