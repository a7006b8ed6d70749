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
use std::collections::VecDeque;

/// The shared swap area: allocation of slots and slot → page bookkeeping.
///
/// Slots are handed out sequentially from the region's base and never
/// reused: a freed slot stays free, and [`SwapSpace::allocate`] returns
/// `None` once the region's last slot has been handed out. The simulators
/// split `u64::MAX / 2` slots among their cores, so no replay gets near
/// that end. Owners are kept for a sliding window of slots that starts at
/// the oldest slot still in use, so the bookkeeping follows the pages
/// currently swapped out, not every swap-out ever made.
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
    /// Next slot to hand out; keeps the sequential layout the kernel aims
    /// for.
    next_fresh: u64,
    /// The slot whose owner is `owners[0]`.
    front: u64,
    /// Owner of each slot in `[front, next_fresh)`, indexed by
    /// `slot - front` (`None` once freed). `front` advances past freed
    /// slots, so the window starts at the oldest slot still in use (or at
    /// `next_fresh` when none is), and every owner probe on the fault hot
    /// path is a direct index instead of a hash lookup.
    owners: VecDeque<Option<(Pid, VirtPage)>>,
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
    /// Allocations are handed out sequentially from `base`, so several
    /// spaces with disjoint regions can coexist in one global slot namespace
    /// (the per-core shards of [`crate::ShardedSwap`]).
    pub(crate) fn with_base(base: u64, capacity: u64) -> Self {
        SwapSpace {
            base,
            capacity,
            next_fresh: base,
            front: base,
            owners: VecDeque::new(),
            used: 0,
        }
    }

    /// The `owners` index of `slot`, if the slot lies inside the window.
    #[inline]
    fn owner_index(&self, slot: SwapSlot) -> Option<usize> {
        let idx = slot.0.checked_sub(self.front)?;
        (idx < self.owners.len() as u64).then_some(idx as usize)
    }

    /// Number of slots currently in use.
    pub fn used_slots(&self) -> u64 {
        self.used
    }

    /// Allocates the region's next slot for `(pid, page)`, so a burst of
    /// page-outs lands in consecutive slots.
    ///
    /// Every call takes a new slot. The caller frees a page's slot when the
    /// page is swapped back in, so a page never owns two slots.
    ///
    /// Returns `None` once every slot of the region has been handed out;
    /// freed slots are not reused.
    pub fn allocate(&mut self, pid: Pid, page: VirtPage) -> Option<SwapSlot> {
        if self.next_fresh >= self.base.saturating_add(self.capacity) {
            return None;
        }
        let slot = SwapSlot(self.next_fresh);
        self.next_fresh += 1;
        self.owners.push_back(Some((pid, page)));
        self.used += 1;
        Some(slot)
    }

    /// Frees a slot, forgetting its owner. Freeing the oldest slot in use
    /// slides the window's front past every freed slot behind it.
    pub fn free(&mut self, slot: SwapSlot) {
        let Some(idx) = self.owner_index(slot) else {
            return;
        };
        if self.owners[idx].take().is_none() {
            return;
        }
        self.used -= 1;
        while let Some(None) = self.owners.front() {
            self.owners.pop_front();
            self.front += 1;
        }
    }

    /// Returns the process and virtual page stored in a slot, if any.
    #[inline]
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
    fn freed_slots_are_never_reused() {
        let mut swap = SwapSpace::new(3);
        let first = swap.allocate(Pid(1), VirtPage(42)).unwrap();
        swap.free(first);
        // A freed slot stays free: allocation always moves on.
        assert_eq!(swap.allocate(Pid(1), VirtPage(42)), Some(SwapSlot(1)));
        assert_eq!(swap.allocate(Pid(1), VirtPage(43)), Some(SwapSlot(2)));
        assert_eq!(swap.allocate(Pid(1), VirtPage(44)), None);
        assert_eq!(swap.owner(first), None);
        assert_eq!(swap.used_slots(), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut swap = SwapSpace::new(2);
        let slot = swap.allocate(Pid(1), VirtPage(0)).unwrap();
        assert!(swap.allocate(Pid(1), VirtPage(1)).is_some());
        assert!(swap.allocate(Pid(1), VirtPage(2)).is_none());
        // Freeing does not make room: the region's end is final.
        swap.free(slot);
        assert!(swap.allocate(Pid(1), VirtPage(2)).is_none());
        assert_eq!(swap.used_slots(), 1);
    }

    #[test]
    fn window_slides_past_freed_slots() {
        let mut swap = SwapSpace::with_base(100, 10);
        let slots: Vec<SwapSlot> = (0..4)
            .map(|p| swap.allocate(Pid(1), VirtPage(p)).unwrap())
            .collect();
        // Freeing out of order keeps the window at the oldest slot in use.
        swap.free(slots[1]);
        assert_eq!(swap.owners.len(), 4);
        swap.free(slots[0]);
        assert_eq!((swap.front, swap.owners.len()), (102, 2));
        assert_eq!(swap.owner(slots[2]), Some((Pid(1), VirtPage(2))));
        swap.free(slots[3]);
        swap.free(slots[2]);
        assert_eq!((swap.front, swap.owners.len()), (104, 0));
        // Slots behind the window and beyond the last allocation miss.
        assert_eq!(swap.owner(SwapSlot(99)), None);
        assert_eq!(swap.owner(slots[0]), None);
        assert_eq!(swap.owner(SwapSlot(104)), None);
        assert_eq!(swap.allocate(Pid(2), VirtPage(0)), Some(SwapSlot(104)));
        assert_eq!(swap.owner(SwapSlot(104)), Some((Pid(2), VirtPage(0))));
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

        /// Under any mix of allocations and frees, the region hands out
        /// exactly its `capacity` slots, in order, and then no more.
        #[test]
        fn prop_capacity_never_exceeded(
            capacity in 1u64..64,
            ops in proptest::collection::vec((0u64..1000, any::<bool>()), 0..200),
        ) {
            let mut swap = SwapSpace::new(capacity);
            let mut held: Vec<SwapSlot> = Vec::new();
            let mut handed_out = 0u64;
            for (p, alloc) in ops {
                if alloc {
                    match swap.allocate(Pid(1), VirtPage(p)) {
                        Some(slot) => {
                            prop_assert_eq!(slot, SwapSlot(handed_out));
                            handed_out += 1;
                            held.push(slot);
                        }
                        None => prop_assert_eq!(handed_out, capacity),
                    }
                } else if !held.is_empty() {
                    swap.free(held.swap_remove(p as usize % held.len()));
                }
                prop_assert!(handed_out <= capacity);
                prop_assert_eq!(swap.used_slots(), held.len() as u64);
            }
        }
    }
}
