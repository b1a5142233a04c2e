//! Core identifier types, vector timestamps, and team descriptors.
//!
//! Terminology follows TreadMarks / the paper:
//!
//! * a **pid** is a process's logical rank in the current team (0 is
//!   always the master). Pids are *reassigned* at adaptation points;
//! * a **gpid** ([`nowmp_net::Gpid`]) names a process instance forever;
//! * an **interval** is the span between two consecutive releases at one
//!   process; intervals are numbered per process by a [`Seq`];
//! * a **vector timestamp** ([`Vc`]) maps each pid to the highest
//!   interval of that process known (or applied);
//! * an **epoch** counts garbage collections. All consistency metadata
//!   (intervals, diffs, write notices, vector clocks) lives within one
//!   epoch; GC resets it, which is what makes adaptation cheap.

use nowmp_net::Gpid;
use nowmp_util::wire::{Dec, Enc, Encoding, Wire, WireError};

/// Logical process rank within the current team.
pub type Pid = u16;

/// Interval sequence number (per process, per epoch).
pub type Seq = u32;

/// Page index within the global shared address space.
pub type PageId = u32;

/// Slot (8-byte word) index within the global shared address space.
pub type Addr = u64;

/// Garbage-collection epoch.
pub type Epoch = u32;

/// A vector timestamp: `vc[pid] =` highest interval seq of `pid` known.
///
/// The *sum* of the entries is a strictly monotone function along
/// happens-before, so sorting by [`Vc::sum`] linearizes causality —
/// concurrent entries compare arbitrarily, which is fine because
/// concurrent diffs of data-race-free programs touch disjoint words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Vc(Vec<Seq>);

impl Vc {
    /// All-zero vector clock for `n` processes.
    pub fn new(n: usize) -> Self {
        Vc(vec![0; n])
    }

    /// Number of process entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when sized for zero processes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Entry for `pid` (0 when out of range — a process that did not
    /// exist has performed no intervals).
    #[inline]
    pub fn get(&self, pid: Pid) -> Seq {
        self.0.get(pid as usize).copied().unwrap_or(0)
    }

    /// Set entry for `pid`, growing as needed.
    pub fn set(&mut self, pid: Pid, seq: Seq) {
        if self.0.len() <= pid as usize {
            self.0.resize(pid as usize + 1, 0);
        }
        self.0[pid as usize] = seq;
    }

    /// Raise entry for `pid` to at least `seq`.
    pub fn raise(&mut self, pid: Pid, seq: Seq) {
        if self.get(pid) < seq {
            self.set(pid, seq);
        }
    }

    /// Element-wise maximum with `other`.
    pub fn merge(&mut self, other: &Vc) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &o) in other.0.iter().enumerate() {
            if self.0[i] < o {
                self.0[i] = o;
            }
        }
    }

    /// Element-wise minimum with `other` (an entry `other` lacks is 0).
    pub fn meet(&mut self, other: &Vc) {
        for (i, s) in self.0.iter_mut().enumerate() {
            *s = (*s).min(other.get(i as Pid));
        }
    }

    /// True when every entry of `self` is ≥ the matching entry of `other`.
    pub fn dominates(&self, other: &Vc) -> bool {
        for (i, &o) in other.0.iter().enumerate() {
            if o > 0 && self.0.get(i).copied().unwrap_or(0) < o {
                return false;
            }
        }
        true
    }

    /// Sum of all entries — a linear extension of happens-before.
    pub fn sum(&self) -> u64 {
        self.0.iter().map(|&s| s as u64).sum()
    }

    /// Iterate `(pid, seq)` pairs with non-zero seq.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Pid, Seq)> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > 0)
            .map(|(i, &s)| (i as Pid, s))
    }

    /// Access the raw entries.
    pub fn as_slice(&self) -> &[Seq] {
        &self.0
    }
}

/// Marker bit distinguishing the packed vector-clock form from the
/// flat one in the leading count word. Team sizes never approach
/// 2^31, so a flat encoder can't produce it by accident.
const VC_PACKED: u32 = 0x8000_0000;

impl Wire for Vc {
    /// Under [`Encoding::Flat`] a vector clock is a count-prefixed
    /// `u32` slice — 4 bytes per entry, the 1999 layout the calibrated
    /// cost pins depend on. Under [`Encoding::Runs`] the count word
    /// carries [`VC_PACKED`] and each entry follows as an LEB128
    /// varint: interval sequence numbers are small (they reset every
    /// GC epoch), so a dense n-entry clock shrinks from `4n` to about
    /// `n` bytes — the dominant term in a [`crate::records::Record`],
    /// and therefore in fork payloads and join aggregates, once teams
    /// grow past a handful of ranks. Decoders accept both forms
    /// unconditionally (same contract as the page-run encoding).
    fn enc(&self, e: &mut Enc) {
        if e.encoding() == Encoding::Runs {
            e.put_u32(VC_PACKED | self.0.len() as u32);
            for &x in &self.0 {
                e.put_varu32(x);
            }
        } else {
            e.put_u32_slice(&self.0);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let head = d.get_u32()?;
        if head & VC_PACKED == 0 {
            // Flat: `head` is the count, entries are fixed-width.
            let n = head as usize;
            if n.saturating_mul(4) > d.remaining() {
                return Err(WireError::BadLength { what: "vc", len: n });
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.get_u32()?);
            }
            Ok(Vc(v))
        } else {
            let n = (head & !VC_PACKED) as usize;
            if n > d.remaining() {
                // Each varint is at least one byte.
                return Err(WireError::BadLength { what: "vc", len: n });
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.get_varu32()?);
            }
            Ok(Vc(v))
        }
    }
}

/// The current set of processes: `members[pid] = gpid`.
///
/// A fresh team (with possibly different size and pid assignment) is
/// installed at every adaptation point; the `epoch` ties protocol
/// messages to the team they were meant for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Team {
    /// GC / adaptation epoch this team belongs to.
    pub epoch: Epoch,
    /// Process instances by pid; index 0 is the master.
    pub members: Vec<Gpid>,
}

impl Team {
    /// Build a team for `epoch` from its member list.
    pub fn new(epoch: Epoch, members: Vec<Gpid>) -> Self {
        Team { epoch, members }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.members.len()
    }

    /// Gpid of `pid`.
    pub fn gpid(&self, pid: Pid) -> Gpid {
        self.members[pid as usize]
    }

    /// Pid of `gpid`, if a member.
    pub fn pid_of(&self, gpid: Gpid) -> Option<Pid> {
        self.members
            .iter()
            .position(|&g| g == gpid)
            .map(|i| i as Pid)
    }

    /// The master's gpid.
    pub fn master(&self) -> Gpid {
        self.members[0]
    }

    /// Manager pid for lock `id` (TreadMarks statically distributes
    /// lock management round-robin).
    pub fn lock_manager(&self, lock: u32) -> Pid {
        (lock as usize % self.nprocs()) as Pid
    }
}

impl Wire for Team {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(self.epoch);
        e.put_seq(&self.members);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(Team {
            epoch: d.get_u32()?,
            members: d.get_seq()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_merge_is_lub() {
        let mut a = Vc::new(3);
        a.set(0, 5);
        a.set(2, 1);
        let mut b = Vc::new(3);
        b.set(1, 7);
        b.set(2, 4);
        a.merge(&b);
        assert_eq!(a.as_slice(), &[5, 7, 4]);
        assert!(a.dominates(&b));
    }

    #[test]
    fn vc_dominates_handles_size_mismatch() {
        let mut small = Vc::new(1);
        small.set(0, 9);
        let mut big = Vc::new(4);
        big.set(3, 1);
        assert!(!small.dominates(&big));
        big.merge(&small);
        assert!(big.dominates(&small));
    }

    #[test]
    fn vc_sum_monotone_under_raise() {
        let mut v = Vc::new(4);
        let s0 = v.sum();
        v.raise(2, 3);
        assert!(v.sum() > s0);
        v.raise(2, 1); // no-op, already higher
        assert_eq!(v.get(2), 3);
    }

    #[test]
    fn vc_wire_roundtrip() {
        let mut v = Vc::new(5);
        v.set(1, 10);
        v.set(4, 2);
        let back = Vc::from_wire(&v.to_wire()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn team_lookup() {
        let t = Team::new(3, vec![Gpid(10), Gpid(20), Gpid(30)]);
        assert_eq!(t.nprocs(), 3);
        assert_eq!(t.gpid(1), Gpid(20));
        assert_eq!(t.pid_of(Gpid(30)), Some(2));
        assert_eq!(t.pid_of(Gpid(99)), None);
        assert_eq!(t.master(), Gpid(10));
        assert_eq!(t.lock_manager(7), 1);
    }

    #[test]
    fn team_wire_roundtrip() {
        let t = Team::new(9, vec![Gpid(1), Gpid(4)]);
        assert_eq!(Team::from_wire(&t.to_wire()).unwrap(), t);
    }

    #[test]
    fn iter_nonzero_skips_zeros() {
        let mut v = Vc::new(4);
        v.set(1, 3);
        v.set(3, 1);
        let got: Vec<_> = v.iter_nonzero().collect();
        assert_eq!(got, vec![(1, 3), (3, 1)]);
    }
}
