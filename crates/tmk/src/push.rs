//! The push gate: the `DiffPush`es an interval close queued for its
//! readers ([`crate::core::ProcCore::close_interval`]), which the
//! service thread sends one at a time, and the rule that holds a
//! close's pushes behind the synchronization message that follows it.
//! Older pushes are never held: their notices may be out, and whoever
//! learnt one may be parked on its push.

use crate::types::Epoch;
use nowmp_net::Gpid;
use std::collections::VecDeque;

/// One queued `DiffPush`: destination, encoded payload, diffs carried.
pub type Push = (Gpid, bytes::Bytes, u64);

/// The outbox of queued pushes and how many at its back are held.
#[derive(Default)]
pub struct PushGate {
    /// Pushes not sent yet, oldest first.
    outbox: VecDeque<Push>,
    /// How many pushes at the back of the outbox are held.
    held: usize,
    /// How many pushes the last close queued.
    close_pushes: usize,
    /// While we wait for our reduce subtree: how many aggregates we
    /// collect.
    subtree_due: Option<usize>,
    /// Aggregates of our epoch no collection has taken yet.
    subtree_in: usize,
}

impl PushGate {
    /// A close queued `pushes`: they join the outbox, held until the
    /// synchronization message that follows the close is on the link,
    /// a `RecordsRep` hands out its notices, or a commit.
    pub fn hold_close(&mut self, pushes: Vec<Push>) {
        self.close_pushes = pushes.len();
        self.held += pushes.len();
        self.outbox.extend(pushes);
    }

    /// Release every held push; whether the outbox has a push to send.
    pub fn release_pushes(&mut self) -> bool {
        self.held = 0;
        !self.outbox.is_empty()
    }

    /// We have closed and are about to collect `children` aggregates of
    /// our reduce subtree. A leaf keeps its close's pushes held until
    /// its arrival is on the link. An aggregator releases them, since
    /// its link would idle while it waits; the aggregate that completes
    /// its subtree holds what is left of them again, until its own
    /// aggregate is on the link, which then queues behind the one push
    /// on the wire at most. If the subtree is complete already, its
    /// pushes go first. Whether the outbox has a push to send now.
    pub fn await_subtree(&mut self, children: usize) -> bool {
        if children == 0 {
            return false;
        }
        if self.subtree_in < children {
            self.subtree_due = Some(children);
        }
        self.release_pushes()
    }

    /// The service thread forwards an aggregate of `epoch` to the
    /// application thread, whose epoch is `ours`: if it completes the
    /// subtree a collection waits for, the close's pushes still queued
    /// are held. An aggregate of another epoch is handed back: it
    /// changes nothing.
    pub fn subtree_arrived(&mut self, epoch: Epoch, ours: Epoch) -> Result<(), Epoch> {
        if epoch != ours {
            return Err(epoch);
        }
        self.subtree_in += 1;
        if self.subtree_due.is_some_and(|due| self.subtree_in >= due) {
            self.held = self.close_pushes.min(self.outbox.len());
        }
        Ok(())
    }

    /// A collection took `children` aggregates.
    pub fn subtree_collected(&mut self, children: usize) {
        self.subtree_due = None;
        self.subtree_in = self.subtree_in.saturating_sub(children);
    }

    /// The next push to send, unless every queued one is held.
    pub fn next_push(&mut self) -> Option<Push> {
        if self.outbox.len() > self.held {
            self.outbox.pop_front()
        } else {
            None
        }
    }

    /// The queued pushes, oldest first.
    pub fn queued(&self) -> &VecDeque<Push> {
        &self.outbox
    }

    /// How many queued pushes are held.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Aggregates forwarded that no collection has taken yet.
    pub fn subtree_in(&self) -> usize {
        self.subtree_in
    }
}
