//! Shared-memory allocation and the handle registry.
//!
//! As in TreadMarks, only the master allocates shared memory
//! (`Tmk_malloc`), during sequential phases. Allocations are
//! page-aligned — scientific arrays must not share pages with unrelated
//! data, or false sharing inflates diff traffic for no reason (the
//! paper's applications allocate their arrays the same way).
//!
//! The registry maps application-chosen names to allocations so that
//! worker processes (including ones that *join years into the run*) can
//! locate arrays without any application-level bootstrapping: the
//! registry rides along in `Fork` deltas and `JoinInit` messages.

use crate::msg::{ElemKind, RegEntry};
use crate::types::{Addr, PageId};
use std::collections::HashMap;

/// Bump allocator over the global slot space (master-side authority).
#[derive(Debug)]
pub struct Allocator {
    slots_per_page: usize,
    next_slot: Addr,
}

impl Allocator {
    /// Allocator for a page size of `slots_per_page` slots.
    pub fn new(slots_per_page: usize) -> Self {
        Allocator {
            slots_per_page,
            next_slot: 0,
        }
    }

    /// Allocate `len` slots, page-aligned; returns the base address.
    pub fn alloc(&mut self, len: u64) -> Addr {
        let spp = self.slots_per_page as u64;
        let base = self.next_slot.div_ceil(spp) * spp;
        self.next_slot = base + len.max(1);
        base
    }

    /// Total slots allocated (high-water mark).
    pub fn allocated_slots(&self) -> Addr {
        self.next_slot
    }

    /// Number of pages backing the allocations so far.
    pub fn allocated_pages(&self) -> usize {
        (self.next_slot as usize).div_ceil(self.slots_per_page)
    }

    /// Restore allocator state (checkpoint recovery).
    pub fn restore(&mut self, next_slot: Addr) {
        self.next_slot = next_slot;
    }
}

/// Versioned name → allocation registry.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Vec<RegEntry>,
    by_name: HashMap<String, usize>,
    version: u32,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish an allocation under `name`. Panics on duplicate names
    /// (application bug).
    pub fn publish(&mut self, name: &str, addr: Addr, len: u64, kind: ElemKind) -> RegEntry {
        assert!(
            !self.by_name.contains_key(name),
            "registry name {name:?} already published"
        );
        self.version += 1;
        let entry = RegEntry {
            name: name.to_owned(),
            addr,
            len,
            kind,
            ver: self.version,
        };
        self.by_name.insert(name.to_owned(), self.entries.len());
        self.entries.push(entry.clone());
        entry
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<&RegEntry> {
        self.by_name.get(name).map(|&i| &self.entries[i])
    }

    /// Current version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Entries newer than `since` (fork delta payload).
    pub fn delta_since(&self, since: u32) -> Vec<RegEntry> {
        self.entries
            .iter()
            .filter(|e| e.ver > since)
            .cloned()
            .collect()
    }

    /// All entries (join payload).
    pub fn full(&self) -> Vec<RegEntry> {
        self.entries.clone()
    }

    /// Merge received entries (worker side); newer versions win, the
    /// version counter follows the maximum seen.
    pub fn merge(&mut self, entries: &[RegEntry]) {
        for e in entries {
            if let Some(&i) = self.by_name.get(&e.name) {
                if self.entries[i].ver < e.ver {
                    self.entries[i] = e.clone();
                }
            } else {
                self.by_name.insert(e.name.clone(), self.entries.len());
                self.entries.push(e.clone());
            }
            if e.ver > self.version {
                self.version = e.ver;
            }
        }
    }
}

/// Page range `[first, last]` covered by a slot range.
pub fn pages_of(addr: Addr, len: u64, slots_per_page: usize) -> (PageId, PageId) {
    let spp = slots_per_page as u64;
    let first = (addr / spp) as PageId;
    let last = ((addr + len.max(1) - 1) / spp) as PageId;
    (first, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned() {
        let mut a = Allocator::new(32);
        let x = a.alloc(10);
        let y = a.alloc(40);
        let z = a.alloc(1);
        assert_eq!(x, 0);
        assert_eq!(y, 32, "second allocation starts on the next page");
        assert_eq!(z, 96, "40 slots span 2 pages; next page is 3rd");
        assert_eq!(a.allocated_pages(), 4);
    }

    #[test]
    fn alloc_zero_len_still_advances() {
        let mut a = Allocator::new(32);
        let x = a.alloc(0);
        let y = a.alloc(1);
        assert_eq!(x, 0);
        assert_eq!(y, 32);
    }

    #[test]
    fn registry_publish_get_delta() {
        let mut r = Registry::new();
        let e1 = r.publish("grid", 0, 100, ElemKind::F64);
        let e2 = r.publish("tmp", 128, 100, ElemKind::F64);
        assert_eq!(e1.ver, 1);
        assert_eq!(e2.ver, 2);
        assert_eq!(r.get("grid").unwrap().addr, 0);
        assert!(r.get("nope").is_none());
        assert_eq!(r.delta_since(1).len(), 1);
        assert_eq!(r.delta_since(0).len(), 2);
        assert_eq!(r.full().len(), 2);
    }

    #[test]
    #[should_panic(expected = "already published")]
    fn duplicate_name_panics() {
        let mut r = Registry::new();
        r.publish("x", 0, 1, ElemKind::U64);
        r.publish("x", 32, 1, ElemKind::U64);
    }

    #[test]
    fn merge_applies_newer() {
        let mut master = Registry::new();
        master.publish("a", 0, 1, ElemKind::F64);
        master.publish("b", 32, 1, ElemKind::F64);

        let mut worker = Registry::new();
        worker.merge(&master.delta_since(0));
        assert_eq!(worker.get("a").unwrap().addr, 0);
        assert_eq!(worker.version(), 2);

        master.publish("c", 64, 1, ElemKind::F64);
        worker.merge(&master.delta_since(worker.version()));
        assert_eq!(worker.get("c").unwrap().addr, 64);
        assert_eq!(worker.full().len(), 3);
    }

    #[test]
    fn pages_of_ranges() {
        assert_eq!(pages_of(0, 32, 32), (0, 0));
        assert_eq!(pages_of(0, 33, 32), (0, 1));
        assert_eq!(pages_of(32, 1, 32), (1, 1));
        assert_eq!(pages_of(31, 2, 32), (0, 1));
        assert_eq!(pages_of(64, 0, 32), (2, 2));
    }
}
