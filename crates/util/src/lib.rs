//! # nowmp-util
//!
//! Utility substrate shared by every `nowmp` crate.
//!
//! The 1999 system this workspace reproduces (adaptive TreadMarks under an
//! OpenMP frontend) hand-rolled its message formats over UDP and its
//! checkpoint file format over `write(2)`. We keep that spirit: instead of
//! pulling in a serialization framework, this crate provides
//!
//! * [`wire`] — a small, explicit binary codec ([`wire::Enc`] / [`wire::Dec`])
//!   and the [`wire::Wire`] trait every protocol message implements;
//! * [`crc`] — CRC-32 (IEEE) used to protect checkpoint files;
//! * [`zrle`] — zero-run-length encoding used to compress shared-memory
//!   pages in checkpoints and migration images (scientific arrays are
//!   zero-dominated early in a run);
//! * [`lock`] — `SpinLock`, a re-export of `parking_lot::Mutex` (the tmk
//!   page-table shard lock), kept for the harness's `util.spinlock_*` lanes;
//! * [`mod@mailbox`] — clock-bound channels, the one way simulation threads
//!   hand each other messages;
//! * [`timing`] — precise sleeping for the network cost emulation and a
//!   condition wait with a deadlock timeout;
//! * [`clock`] — the [`clock::Clock`] abstraction every layer tells
//!   time by: a wall-clock backend and a deterministic discrete-event
//!   [`clock::Clock::new_virtual`] backend under which emulated delays
//!   cost zero wall time.
//!
//! Everything here is deterministic and fully unit/property tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod crc;
pub mod lock;
pub mod mailbox;
pub mod timing;
pub mod wire;
pub mod zrle;

pub use clock::{
    waiting_for, Alarm, Cause, Clock, ClockCondvar, JoinHandle, Ledger, ParticipantGuard, TaskId,
    TaskScheduler, Tick, CAUSES,
};
pub use crc::crc32;
pub use mailbox::{mailbox, MailboxReceiver, MailboxSender};
pub use timing::{precise_sleep, wait_for};
pub use wire::{Dec, Enc, Encoding, Wire, WireError};

/// Format a byte count in a human-friendly unit (B / KB / MB / GB).
pub fn fmt_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2} GB", b / GB)
    } else if b >= MB {
        format!("{:.2} MB", b / MB)
    } else if b >= KB {
        format!("{:.2} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(17), "17 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024 * 1024), "5.00 GB");
    }
}
