//! Clock-bound channels: the one way simulation threads hand each other
//! messages.
//!
//! A mailbox is std's `mpsc` channel plus, on a virtual [`Clock`], the
//! clock's bookkeeping for its single receiver:
//!
//! * a receiver that finds the mailbox empty parks *on that mailbox*,
//!   visibly blocked;
//! * a `send` enqueues and — under the clock lock, before it unparks
//!   anyone — marks a receiver parked on the mailbox runnable, so the
//!   reader counts as running from the moment of the send, not from
//!   whenever it wakes up;
//! * a message whose reader is busy or waits elsewhere just sits in the
//!   queue: it holds nothing, and is found by the next `recv`;
//! * dropping the last sender wakes the receiver the same way, to see
//!   the disconnect.
//!
//! On the real clock every call passes straight through to std's channel.

use crate::clock::{Clock, Limit, VirtualCore};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

/// The virtual clock's handle on one mailbox.
#[derive(Clone)]
struct Gate {
    core: Arc<VirtualCore>,
    /// Where the receiver parks.
    chan: u64,
}

/// An unbounded mailbox, for a long-lived queue (an endpoint's inbox, a
/// control channel) and a single message (a reply, a lock grant) alike.
pub fn mailbox<T>(clock: &Clock) -> (MailboxSender<T>, MailboxReceiver<T>) {
    let (tx, rx) = mpsc::channel();
    let gate = clock.virtual_core().map(|core| Gate {
        core: Arc::clone(core),
        chan: core.new_chan(),
    });
    (
        MailboxSender {
            half: Arc::new(SendHalf {
                tx: Some(tx),
                gate: gate.clone(),
            }),
        },
        MailboxReceiver { rx, gate },
    )
}

struct SendHalf<T> {
    /// `Some` until drop.
    tx: Option<Sender<T>>,
    gate: Option<Gate>,
}

impl<T> Drop for SendHalf<T> {
    fn drop(&mut self) {
        // Disconnect first and outside the clock lock: this may free
        // the queue and, with it, messages that own other senders.
        drop(self.tx.take());
        if let Some(g) = &self.gate {
            g.core.transition(|st, wake| st.wake_all(g.chan, wake));
        }
    }
}

/// The sending half of a mailbox. Clones share it; the mailbox
/// disconnects when the last clone drops.
pub struct MailboxSender<T> {
    half: Arc<SendHalf<T>>,
}

impl<T> Clone for MailboxSender<T> {
    fn clone(&self) -> Self {
        MailboxSender {
            half: Arc::clone(&self.half),
        }
    }
}

impl<T> MailboxSender<T> {
    /// Enqueue `msg`; errors when the receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let tx = self.half.tx.as_ref().expect("sender present until drop");
        match &self.half.gate {
            None => tx.send(msg),
            Some(g) => g.core.transition(|st, wake| {
                let sent = tx.send(msg);
                if sent.is_ok() {
                    st.wake_one(g.chan, wake);
                }
                sent
            }),
        }
    }
}

/// The receiving half of a mailbox (single consumer: std's `Receiver`
/// makes it `!Sync`).
pub struct MailboxReceiver<T> {
    rx: Receiver<T>,
    gate: Option<Gate>,
}

impl<T> MailboxReceiver<T> {
    /// Block until a message arrives; errors once the mailbox is empty
    /// and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.gate {
            None => self.rx.recv(),
            Some(g) => self.recv_parked(g, Limit::Forever).map_err(|_| RecvError),
        }
    }

    /// [`Self::recv`] with a *real-time* deadlock guard (on both
    /// clocks): simulated time has no say in when it expires.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match &self.gate {
            None => self.rx.recv_timeout(timeout),
            Some(g) => {
                let limit = match Instant::now().checked_add(timeout) {
                    Some(deadline) => Limit::Until(deadline),
                    None => Limit::Forever,
                };
                self.recv_parked(g, limit)
            }
        }
    }

    /// Take a message if one is queued. Never blocks.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.rx.try_recv()
    }

    fn recv_parked(&self, g: &Gate, limit: Limit) -> Result<T, RecvTimeoutError> {
        if let Ok(msg) = self.rx.try_recv() {
            return Ok(msg);
        }
        g.core.with_me(|me| loop {
            // Senders enqueue under this lock: either the message is
            // visible now, or the sender will find us parked.
            let st = g.core.lock();
            match self.rx.try_recv() {
                Ok(msg) => return Ok(msg),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            if !g.core.park(st, me, g.chan, limit, || ()) {
                return Err(RecvTimeoutError::Timeout);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Tick;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn passes_through_on_the_real_clock() {
        let c = Clock::real();
        let (tx, rx) = mailbox::<u32>(&c);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).unwrap();
        tx.clone().send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv_timeout(MS), Ok(2));
        assert_eq!(rx.recv_timeout(MS), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = mailbox::<u32>(&c);
        drop(rx);
        assert!(tx.send(3).is_err());
    }

    #[test]
    fn virtual_timeout_and_disconnect() {
        let c = Clock::new_virtual();
        let (tx, rx) = mailbox::<u32>(&c);
        assert_eq!(rx.recv_timeout(MS), Err(RecvTimeoutError::Timeout));
        let dropper = c.spawn("dropper", move || drop(tx));
        assert_eq!(rx.recv(), Err(RecvError), "woken by the last sender's drop");
        dropper.join().unwrap();
        assert_eq!(c.forced_advances(), 0);
    }

    /// Concurrent producers each keep their order, and nothing is lost.
    #[test]
    fn concurrent_producers_keep_per_sender_order() {
        const PRODUCERS: u64 = 4;
        const EACH: u64 = 10_000;
        let (tx, rx) = mailbox::<(u64, u64)>(&Clock::real());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        tx.send((p, i)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0; PRODUCERS as usize];
        while let Ok((p, i)) = rx.recv() {
            assert_eq!(i, next[p as usize], "producer {p} out of order");
            next[p as usize] += 1;
        }
        assert_eq!(next, [EACH; PRODUCERS as usize]);
        for h in producers {
            h.join().unwrap();
        }
    }

    /// Runs `rx.recv()` on another thread once it has had time to block,
    /// and returns what it got (`None`: still blocked after 10 s).
    fn blocked_recv_after(
        rx: MailboxReceiver<u32>,
        wake: impl FnOnce(),
    ) -> Option<Result<u32, RecvError>> {
        let (back, got) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || back.send(rx.recv()).unwrap());
        std::thread::sleep(10 * MS);
        wake();
        let got = got.recv_timeout(Duration::from_secs(10)).ok();
        if got.is_some() {
            reader.join().unwrap();
        }
        got
    }

    #[test]
    fn real_clock_receiver_is_woken_by_send() {
        let (tx, rx) = mailbox::<u32>(&Clock::real());
        assert_eq!(blocked_recv_after(rx, || tx.send(5).unwrap()), Some(Ok(5)));
    }

    #[test]
    fn real_clock_receiver_is_woken_by_disconnect() {
        let (tx, rx) = mailbox::<u32>(&Clock::real());
        assert_eq!(blocked_recv_after(rx, || drop(tx)), Some(Err(RecvError)));
    }

    /// A queued message whose reader is blocked elsewhere holds nothing:
    /// time moves at once.
    #[test]
    fn message_for_a_reader_blocked_elsewhere_does_not_hold_time() {
        let c = Clock::new_virtual();
        let _me = c.participant();
        let (tx, rx) = mailbox::<u32>(&c);
        let c2 = c.clone();
        let reader = c.spawn("reader", move || {
            c2.sleep(Duration::from_secs(1)); // blocked, but not on the mailbox
            (rx.recv().unwrap(), c2.now())
        });
        let wall = Instant::now();
        tx.send(7).unwrap();
        c.sleep(MS);
        assert_eq!(c.now(), Tick::ZERO + MS);
        assert!(
            wall.elapsed() < Duration::from_millis(100),
            "{:?}",
            wall.elapsed()
        );
        assert_eq!(
            reader.join().unwrap(),
            (7, Tick::ZERO + Duration::from_secs(1))
        );
        assert_eq!(c.forced_advances(), 0);
    }

    /// A reader parked on the mailbox runs from the moment of `send`:
    /// the sender's next sleep cannot carry the clock past it.
    #[test]
    fn parked_reader_is_runnable_from_the_send() {
        for _ in 0..200 {
            let c = Clock::new_virtual();
            let _me = c.participant();
            let (tx, rx) = mailbox::<()>(&c);
            let c2 = c.clone();
            let reader = c.spawn("reader", move || {
                rx.recv().unwrap();
                c2.now()
            });
            // Ends at exactly 1 ms, and only once the reader is parked.
            c.sleep(MS);
            tx.send(()).unwrap();
            c.sleep(10 * MS);
            assert_eq!(reader.join().unwrap(), Tick::ZERO + MS);
            assert_eq!(c.now(), Tick::ZERO + 11 * MS);
            assert_eq!(c.forced_advances(), 0);
        }
    }

    #[test]
    fn hundred_thousand_handoffs_never_meet_the_watchdog() {
        const TRIPS: u32 = 50_000;
        let hop = Duration::from_micros(63);
        let c = Clock::new_virtual();
        let _me = c.participant();
        let (to_echo, echo_in) = mailbox::<u32>(&c);
        let (to_me, my_in) = mailbox::<u32>(&c);
        let c2 = c.clone();
        let echo = c.spawn("echo", move || {
            while let Ok(v) = echo_in.recv() {
                c2.sleep(hop);
                if to_me.send(v).is_err() {
                    break;
                }
            }
        });
        for i in 0..TRIPS {
            to_echo.send(i).unwrap();
            assert_eq!(my_in.recv(), Ok(i));
            c.sleep(hop);
        }
        drop(to_echo);
        echo.join().unwrap();
        // Two hand-offs a trip, each charged one hop, none overlapping.
        assert_eq!(c.now(), Tick::ZERO + hop * (2 * TRIPS));
        assert_eq!(c.forced_advances(), 0);
    }
}
