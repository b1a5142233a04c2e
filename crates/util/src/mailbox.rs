//! Clock-bound channels: the one way simulation threads hand each other
//! messages.
//!
//! A mailbox is a FIFO queue and a [`ClockCondvar`]. Each entry falls
//! due at a tick of the mailbox's [`Clock`] — [`MailboxSender::send`]'s
//! at once, [`MailboxSender::send_at`]'s at its arrival tick — and
//! never before the entry ahead of it, so each sender's order holds. A
//! receive hands out the head once it is due, parking once on the
//! clock until then (the head's tick armed as a deadline) or, on an
//! empty queue, until a send. A message whose reader is busy or waits
//! elsewhere holds nothing. [`MailboxSender::wake`] raises a flag, never
//! an entry: [`MailboxReceiver::recv_or_wake`] sees it at the tick it is
//! raised, ahead of entries still on their way. Dropping the last sender
//! wakes the receiver to see the disconnect.

use crate::clock::{Clock, ClockCondvar, Tick};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

/// What both halves share.
struct Shared<T> {
    queue: Mutex<Queue<T>>,
    cv: ClockCondvar,
}

struct Queue<T> {
    /// `(due tick in nanoseconds, message)` in arrival order.
    entries: VecDeque<(u64, T)>,
    /// A wake raised and not yet seen.
    woken: bool,
    /// Every sender has dropped.
    disconnected: bool,
    /// The receiver has dropped.
    closed: bool,
}

/// How one receive ended.
enum Got<T> {
    Msg(T),
    Woken,
    Timeout,
    Disconnected,
}

/// An unbounded mailbox, for a long-lived queue (an endpoint's inbox, a
/// control channel) and a single message (a reply, a lock grant) alike.
pub fn mailbox<T>(clock: &Clock) -> (MailboxSender<T>, MailboxReceiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            entries: VecDeque::new(),
            woken: false,
            disconnected: false,
            closed: false,
        }),
        cv: ClockCondvar::new(clock),
    });
    let half = Arc::new(SendHalf(Arc::clone(&shared)));
    (MailboxSender { half }, MailboxReceiver { shared })
}

impl<T> Shared<T> {
    /// Change the queue, and wake the receiver if `f` says it waits for
    /// the change.
    fn update<R>(&self, f: impl FnOnce(&mut Queue<T>) -> (R, bool)) -> R {
        let (r, wake) = f(&mut self.queue.lock());
        if wake {
            self.cv.notify_all();
        }
        r
    }

    /// How a receive can end now: with a due head (a raised wake is
    /// lowered too when `wakeable`), the wake, or the disconnect.
    fn ready(&self, q: &mut Queue<T>, wakeable: bool) -> Option<Got<T>> {
        let woken = wakeable && std::mem::take(&mut q.woken);
        match q.entries.front() {
            // Due at zero (a `send` with nothing ahead): no clock read.
            Some(&(due, _)) if due == 0 || due <= self.cv.now().as_nanos() => {
                q.entries.pop_front().map(|(_, msg)| Got::Msg(msg))
            }
            _ if woken => Some(Got::Woken),
            None if q.disconnected => Some(Got::Disconnected),
            _ => None,
        }
    }
}

/// Shared by a mailbox's senders; its drop is the disconnect.
struct SendHalf<T>(Arc<Shared<T>>);

impl<T> Drop for SendHalf<T> {
    fn drop(&mut self) {
        self.0.update(|q| {
            q.disconnected = true;
            ((), true)
        });
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
    /// Enqueue `msg`, due at once (or with the entry ahead of it);
    /// errors when the receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.send_at(msg, Tick::ZERO)
    }

    /// Enqueue `msg`, due at `at` or with the entry ahead of it,
    /// whichever is later; errors when the receiver is gone.
    pub fn send_at(&self, msg: T, at: Tick) -> Result<(), SendError<T>> {
        self.half.0.update(|q| {
            if q.closed {
                return (Err(SendError(msg)), false);
            }
            let ahead = q.entries.back().map(|&(due, _)| due);
            q.entries
                .push_back((ahead.unwrap_or(0).max(at.as_nanos()), msg));
            (Ok(()), ahead.is_none())
        })
    }

    /// Raise the receiver's wake flag (one flag: a second wake before
    /// the first is seen adds nothing).
    pub fn wake(&self) {
        // A flag already up has woken the receiver.
        self.half
            .0
            .update(|q| ((), !std::mem::replace(&mut q.woken, true)));
    }
}

/// The receiving half of a mailbox. Every call below is one receive
/// path: it hands out the head once it is due.
pub struct MailboxReceiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Drop for MailboxReceiver<T> {
    fn drop(&mut self) {
        let left = {
            let mut q = self.shared.queue.lock();
            q.closed = true;
            std::mem::take(&mut q.entries)
        };
        // Outside the lock: a message may own senders whose drop wakes
        // their own receivers.
        drop(left);
    }
}

impl<T> MailboxReceiver<T> {
    /// Block until a message is due; errors once the mailbox is empty
    /// and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        match self.receive(None, false) {
            Got::Msg(msg) => Ok(msg),
            _ => Err(RecvError),
        }
    }

    /// [`Self::recv`] with a *real-time* deadlock guard (on both
    /// clocks) that runs while the mailbox is empty: simulated time has
    /// no say in when it expires, and a message on its way is waited
    /// for.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match self.receive(Instant::now().checked_add(timeout), false) {
            Got::Msg(msg) => Ok(msg),
            Got::Timeout => Err(RecvTimeoutError::Timeout),
            _ => Err(RecvTimeoutError::Disconnected),
        }
    }

    /// [`Self::recv`] that also returns `Ok(None)` on a
    /// [`MailboxSender::wake`]. Either way the wake flag is lowered.
    pub fn recv_or_wake(&self) -> Result<Option<T>, RecvError> {
        match self.receive(None, true) {
            Got::Msg(msg) => Ok(Some(msg)),
            Got::Woken => Ok(None),
            _ => Err(RecvError),
        }
    }

    /// Take the head if it is due. Never blocks.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.shared.ready(&mut self.shared.queue.lock(), false) {
            Some(Got::Msg(msg)) => Ok(msg),
            Some(_) => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// The one receive path: wait until [`Shared::ready`] says how it
    /// ends, or `guard` (real time) passes with the queue empty.
    fn receive(&self, guard: Option<Instant>, wakeable: bool) -> Got<T> {
        let Shared { queue, cv, .. } = &*self.shared;
        let mut q = queue.lock();
        loop {
            if let Some(got) = self.shared.ready(&mut q, wakeable) {
                return got;
            }
            q = match (q.entries.front(), guard) {
                (Some(&(due, _)), _) => cv.wait_until(queue, q, Tick::from_nanos(due)),
                (None, None) => cv.wait(queue, q),
                (None, Some(g)) => match g.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => cv.wait_timeout(queue, q, left).0,
                    _ => return Got::Timeout,
                },
            };
        }
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

    /// Each entry falls due at its tick, never before the entry ahead
    /// of it; a receive parks once, to the head's tick.
    #[test]
    fn entries_fall_due_in_arrival_order() {
        let c = Clock::new_virtual();
        let _me = c.participant();
        let (tx, rx) = mailbox::<u32>(&c);
        tx.send_at(1, Tick::ZERO + 5 * MS).unwrap();
        tx.send_at(2, Tick::ZERO + 2 * MS).unwrap(); // due with the head
        tx.send(3).unwrap();
        tx.send_at(4, Tick::ZERO + 9 * MS).unwrap();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "nothing due yet");
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(c.now(), Tick::ZERO + 5 * MS);
        assert_eq!((rx.try_recv(), rx.try_recv()), (Ok(2), Ok(3)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        // The real-time guard runs out only on an empty mailbox: an
        // entry on its way is waited for.
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(4));
        assert_eq!(c.now(), Tick::ZERO + 9 * MS);
        assert_eq!(c.forced_advances(), 0);
    }

    /// On the real clock an entry is handed out at its tick, not late by
    /// the OS timer slack: the wait spins its last stretch.
    #[test]
    fn real_clock_hands_an_entry_out_at_its_tick() {
        let c = Clock::real();
        let (tx, rx) = mailbox::<u32>(&c);
        // Lateness is load-sensitive: bound the best of several.
        let mut best = Duration::MAX;
        for _ in 0..10 {
            let due = c.now() + MS;
            tx.send_at(1, due).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            assert_eq!(rx.recv(), Ok(1));
            let at = c.now();
            assert!(at >= due);
            best = best.min(at.saturating_since(due));
            assert_eq!(rx.try_recv(), Ok(2));
        }
        assert!(best < Duration::from_micros(30), "{best:?} late at best");
    }

    /// A wake ends a wait on an entry still on its way at the wake's own
    /// tick and disarms the entry's deadline, so an idle clock has
    /// nothing to advance to; the entry still arrives at its tick.
    #[test]
    fn a_wake_is_seen_at_its_tick_ahead_of_an_entry_on_its_way() {
        let c = Clock::new_virtual();
        let _me = c.participant();
        let (tx, rx) = mailbox::<u32>(&c);
        tx.send_at(1, Tick::ZERO + 10 * MS).unwrap();
        let c2 = c.clone();
        let reader = c.spawn("reader", move || {
            let got = rx.recv_or_wake();
            (got, c2.now(), rx)
        });
        c.sleep(MS);
        tx.wake();
        let (got, at, rx) = reader.join().unwrap();
        assert_eq!((got, at), (Ok(None), Tick::ZERO + MS));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "still on its way");
        // Quiescent with no deadline pending: time stays put.
        c.blocked(|| ());
        assert_eq!(c.now(), Tick::ZERO + MS);
        // The flag was lowered; the entry arrives at its tick.
        assert_eq!(rx.recv_or_wake(), Ok(Some(1)));
        assert_eq!(c.now(), Tick::ZERO + 10 * MS);
        // A wake is never a message: `recv` and `try_recv` pass it by.
        tx.wake();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(c.forced_advances(), 0);
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
