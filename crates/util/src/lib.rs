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
//! * [`lock`] — a [`lock::SpinLock`] with typestate [`lock::LockGuard`]s
//!   (the xv6-style discipline: data reachable only through the guard),
//!   used for sharded hot-path state like the tmk page-table shards;
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

#![warn(missing_docs)]

pub mod clock;
pub mod crc;
pub mod lock;
pub mod mailbox;
pub mod timing;
pub mod wire;
pub mod zrle;

pub use clock::{
    Alarm, Clock, ClockCondvar, JoinHandle, ParticipantGuard, TaskId, TaskScheduler, Tick,
};
pub use crc::crc32;
pub use lock::{LockGuard, SpinLock};
pub use mailbox::{mailbox, MailboxReceiver, MailboxSender};
pub use timing::{precise_sleep, wait_for};
pub use wire::{Dec, Enc, Encoding, Wire, WireError};

/// Compute the ceiling of `a / b` for positive integers.
///
/// Used throughout iteration partitioning and page-range math.
#[inline]
pub const fn div_ceil(a: usize, b: usize) -> usize {
    if b == 0 {
        0
    } else {
        a.div_ceil(b)
    }
}

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
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
        assert_eq!(div_ceil(8, 4), 2);
        assert_eq!(div_ceil(9, 4), 3);
    }

    #[test]
    fn div_ceil_zero_divisor_is_zero() {
        assert_eq!(div_ceil(10, 0), 0);
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(17), "17 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024 * 1024), "5.00 GB");
    }
}
