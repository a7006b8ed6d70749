//! The shared swap space and its slot allocator.
//!
//! Linux keeps a single swap area shared by every process and tries to lay
//! out consecutively swapped pages in consecutive slots (§2.3 of the paper).
//! That layout is what makes sequential-disk prefetchers plausible — and what
//! breaks down when multiple processes interleave their page-outs. The
//! [`SwapSpace`] model reproduces both effects: slots are handed out mostly
//! sequentially per allocation burst, and different processes' bursts
//! interleave in the shared offset space.

use crate::types::{Pid, SwapSlot, VirtPage};

/// The shared swap area: allocation of slots and slot → page bookkeeping.
///
/// # Examples
///
/// ```
/// use leap_mem::{Pid, SwapSpace, VirtPage};
///
/// let mut swap = SwapSpace::new(1024);
/// let slot = swap.allocate(Pid(1), VirtPage(7)).unwrap();
/// assert_eq!(swap.owner(slot), Some((Pid(1), VirtPage(7))));
/// swap.free(slot);
/// assert_eq!(swap.owner(slot), None);
/// ```
#[derive(Debug, Clone)]
pub struct SwapSpace {
    /// First slot offset this space hands out (nonzero for the shards of a
    /// [`crate::ShardedSwap`], which own disjoint slot regions).
    base: u64,
    capacity: u64,
    /// Next slot to try for a fresh (never used) allocation; keeps the
    /// sequential layout the kernel aims for.
    next_fresh: u64,
    /// Slots that have been freed, reused only once every fresh slot of
    /// the region has been handed out.
    free_slots: Vec<SwapSlot>,
    /// Owner of each slot below the high-water mark `next_fresh`, indexed
    /// by `slot - base` (`None` once freed). Fresh allocations are
    /// sequential from `base`, so the vector's length is the number of
    /// slots ever handed out — bounded by the pages ever swapped out, not
    /// the region's capacity — and every owner probe on the fault hot path
    /// is a direct index instead of a hash lookup.
    owners: Vec<Option<(Pid, VirtPage)>>,
    /// Number of in-use slots (`Some` entries of `owners`).
    used: u64,
}

impl SwapSpace {
    /// Creates a swap space with `capacity` slots starting at offset 0.
    pub fn new(capacity: u64) -> Self {
        SwapSpace::with_base(0, capacity)
    }

    /// Creates a swap space owning the slot region
    /// `[base, base + capacity)`.
    ///
    /// Fresh allocations are handed out sequentially from `base`, so several
    /// spaces with disjoint regions can coexist in one global slot namespace
    /// (the per-core shards of [`crate::ShardedSwap`]).
    pub fn with_base(base: u64, capacity: u64) -> Self {
        SwapSpace {
            base,
            capacity,
            next_fresh: base,
            free_slots: Vec::new(),
            owners: Vec::new(),
            used: 0,
        }
    }

    /// The `owners` index of `slot`, if the slot lies inside this space's
    /// region below the high-water mark.
    #[inline]
    fn owner_index(&self, slot: SwapSlot) -> Option<usize> {
        let idx = slot.0.checked_sub(self.base)? as usize;
        (idx < self.owners.len()).then_some(idx)
    }

    /// First slot offset of this space's region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of slots currently in use.
    pub fn used_slots(&self) -> u64 {
        self.used
    }

    /// Allocates a slot for `(pid, page)`: the next fresh slot of the
    /// region while any remain (so a burst of page-outs lands in
    /// consecutive slots), then a previously freed one.
    ///
    /// Every call takes a new slot. The caller frees a page's slot when the
    /// page is swapped back in, so a page never owns two slots.
    ///
    /// Returns `None` when the swap area is full.
    pub fn allocate(&mut self, pid: Pid, page: VirtPage) -> Option<SwapSlot> {
        let slot = if self.next_fresh < self.base.saturating_add(self.capacity) {
            let s = SwapSlot(self.next_fresh);
            self.next_fresh += 1;
            s
        } else {
            self.free_slots.pop()?
        };
        let idx = (slot.0 - self.base) as usize;
        if idx >= self.owners.len() {
            self.owners.resize(idx + 1, None);
        }
        self.owners[idx] = Some((pid, page));
        self.used += 1;
        Some(slot)
    }

    /// Frees a slot, forgetting its owner.
    pub fn free(&mut self, slot: SwapSlot) {
        let Some(idx) = self.owner_index(slot) else {
            return;
        };
        if self.owners[idx].take().is_some() {
            self.free_slots.push(slot);
            self.used -= 1;
        }
    }

    /// Returns the process and virtual page stored in a slot, if any.
    pub fn owner(&self, slot: SwapSlot) -> Option<(Pid, VirtPage)> {
        self.owner_index(slot).and_then(|idx| self.owners[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocation_is_sequential_for_one_process() {
        let mut swap = SwapSpace::new(100);
        let slots: Vec<u64> = (0..10)
            .map(|i| swap.allocate(Pid(1), VirtPage(i)).unwrap().0)
            .collect();
        assert_eq!(slots, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_processes_share_the_offset_space() {
        let mut swap = SwapSpace::new(100);
        let a = swap.allocate(Pid(1), VirtPage(0)).unwrap();
        let b = swap.allocate(Pid(2), VirtPage(0)).unwrap();
        let c = swap.allocate(Pid(1), VirtPage(1)).unwrap();
        // Process 1's pages are *not* contiguous in the swap space because
        // process 2 grabbed the slot in between — the §2.3 observation.
        assert_eq!(a.0 + 1, b.0);
        assert_eq!(b.0 + 1, c.0);
    }

    #[test]
    fn fresh_slots_come_before_freed_ones() {
        let mut swap = SwapSpace::new(3);
        let first = swap.allocate(Pid(1), VirtPage(42)).unwrap();
        swap.free(first);
        // A freed slot waits until the region's fresh slots run out.
        assert_eq!(swap.allocate(Pid(1), VirtPage(42)), Some(SwapSlot(1)));
        assert_eq!(swap.allocate(Pid(1), VirtPage(43)), Some(SwapSlot(2)));
        assert_eq!(swap.allocate(Pid(1), VirtPage(44)), Some(first));
        assert_eq!(swap.owner(first), Some((Pid(1), VirtPage(44))));
        assert_eq!(swap.used_slots(), 3);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut swap = SwapSpace::new(2);
        let slot = swap.allocate(Pid(1), VirtPage(0)).unwrap();
        assert!(swap.allocate(Pid(1), VirtPage(1)).is_some());
        assert!(swap.allocate(Pid(1), VirtPage(2)).is_none());
        // Freeing makes room again.
        swap.free(slot);
        assert!(swap.allocate(Pid(1), VirtPage(2)).is_some());
    }

    #[test]
    fn free_forgets_the_owner() {
        let mut swap = SwapSpace::new(4);
        let slot = swap.allocate(Pid(3), VirtPage(9)).unwrap();
        swap.free(slot);
        assert_eq!(swap.owner(slot), None);
        // Freeing an already-free slot is a harmless no-op.
        swap.free(slot);
        assert_eq!(swap.used_slots(), 0);
    }

    proptest! {
        /// Owners and the used count match a reference map of the slots
        /// handed out and not yet freed, under random workloads.
        #[test]
        fn prop_owners_match_reference(
            ops in proptest::collection::vec((0u32..4, 0u64..32, any::<bool>()), 0..200),
        ) {
            let mut swap = SwapSpace::new(64);
            let mut held: Vec<(SwapSlot, (Pid, VirtPage))> = Vec::new();
            for (pid, page, alloc) in ops {
                if alloc {
                    if let Some(slot) = swap.allocate(Pid(pid), VirtPage(page)) {
                        prop_assert!(held.iter().all(|&(s, _)| s != slot));
                        held.push((slot, (Pid(pid), VirtPage(page))));
                    }
                } else if !held.is_empty() {
                    let (slot, _) = held.swap_remove(page as usize % held.len());
                    swap.free(slot);
                }
            }
            prop_assert_eq!(swap.used_slots(), held.len() as u64);
            for &(slot, owner) in &held {
                prop_assert_eq!(swap.owner(slot), Some(owner));
            }
        }

        /// Used slots never exceed capacity.
        #[test]
        fn prop_capacity_never_exceeded(
            capacity in 1u64..64,
            pages in proptest::collection::vec(0u64..1000, 0..200),
        ) {
            let mut swap = SwapSpace::new(capacity);
            for p in pages {
                let _ = swap.allocate(Pid(1), VirtPage(p));
                prop_assert!(swap.used_slots() <= capacity);
            }
        }
    }
}
