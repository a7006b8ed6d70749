//! Per-process page tables, fused with the resident-page LRU.

use crate::types::{SwapSlot, VirtPage};
use leap_sim_core::hash::{fx_map_with_capacity, FxHashMap};

/// The state of one virtual page in a process's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// The page has never been touched (no backing storage yet).
    Untouched,
    /// The page is resident in local DRAM (the process's
    /// [`crate::MemoryLimit`] budgets how many may be).
    Resident,
    /// The page has been swapped out to the given swap slot.
    Swapped(SwapSlot),
}

/// End-of-list marker for the slab links.
const NIL: u32 = u32::MAX;

/// One touched page: its state plus its links on the resident LRU list
/// (both [`NIL`] while the page is swapped out).
#[derive(Debug, Clone, Copy)]
struct Entry {
    page: VirtPage,
    state: PageState,
    prev: u32,
    next: u32,
}

/// A per-process page table mapping virtual pages to their state, with the
/// process's resident pages kept in least-recently-used order.
///
/// The simulator only tracks pages that have ever been touched; untouched
/// pages are implicit and cost nothing. Touched pages live in a slab whose
/// entries carry the page state and the resident-LRU links, behind one
/// page → slab-index map. A page is never forgotten once touched, so slab
/// indices are stable and the list needs no free-list. A resident hit is one
/// map probe ([`PageTable::lookup_touch`]), and evicting the least recently
/// used page ([`PageTable::lru_page`], [`PageTable::swap_out_lru`]) follows
/// the tail link without hashing at all.
///
/// # Examples
///
/// ```
/// use leap_mem::{PageState, PageTable, SwapSlot, VirtPage};
///
/// let mut pt = PageTable::new();
/// assert_eq!(pt.lookup(VirtPage(5)), PageState::Untouched);
/// pt.map(VirtPage(5));
/// pt.map(VirtPage(6));
/// assert_eq!(pt.lookup(VirtPage(5)), PageState::Resident);
///
/// // Touching page 5 makes page 6 the least recently used.
/// pt.lookup_touch(VirtPage(5));
/// assert_eq!(pt.lru_page(), Some(VirtPage(6)));
/// assert_eq!(pt.swap_out_lru(SwapSlot(99)), Some(VirtPage(6)));
/// assert_eq!(pt.lookup(VirtPage(6)), PageState::Swapped(SwapSlot(99)));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    index: FxHashMap<VirtPage, u32>,
    entries: Vec<Entry>,
    /// Most recently used resident page.
    head: u32,
    /// Least recently used resident page.
    tail: u32,
    resident: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::with_capacity(0)
    }

    /// Creates a page table pre-sized for `pages` touched pages (typically
    /// the process's working-set size from its trace), so steady-state
    /// faults never grow the slab or rehash the index.
    pub fn with_capacity(pages: usize) -> Self {
        PageTable {
            index: fx_map_with_capacity(pages),
            entries: Vec::with_capacity(pages),
            head: NIL,
            tail: NIL,
            resident: 0,
        }
    }

    /// Returns the state of a virtual page.
    pub fn lookup(&self, page: VirtPage) -> PageState {
        match self.index.get(&page) {
            Some(&idx) => self.entries[idx as usize].state,
            None => PageState::Untouched,
        }
    }

    /// Returns the state of a virtual page and, if it is resident, makes it
    /// the most recently used one — an access, in one map probe.
    pub fn lookup_touch(&mut self, page: VirtPage) -> PageState {
        let Some(&idx) = self.index.get(&page) else {
            return PageState::Untouched;
        };
        let state = self.entries[idx as usize].state;
        if matches!(state, PageState::Resident) && self.head != idx {
            self.unlink(idx);
            self.link_head(idx);
        }
        state
    }

    /// True if the page is currently resident.
    pub fn is_resident(&self, page: VirtPage) -> bool {
        matches!(self.lookup(page), PageState::Resident)
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Number of pages ever touched (resident or swapped).
    pub fn touched_pages(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Makes a virtual page resident (page-in or first touch) and the most
    /// recently used one.
    pub fn map(&mut self, page: VirtPage) {
        let idx = match self.index.get(&page) {
            Some(&idx) => {
                if matches!(self.entries[idx as usize].state, PageState::Resident) {
                    self.unlink(idx);
                } else {
                    self.resident += 1;
                }
                self.entries[idx as usize].state = PageState::Resident;
                idx
            }
            None => {
                let idx = u32::try_from(self.entries.len())
                    .ok()
                    .filter(|&idx| idx != NIL)
                    .expect("page table holds fewer than u32::MAX pages");
                self.entries.push(Entry {
                    page,
                    state: PageState::Resident,
                    prev: NIL,
                    next: NIL,
                });
                self.index.insert(page, idx);
                self.resident += 1;
                idx
            }
        };
        self.link_head(idx);
    }

    /// The least recently used resident page, if any.
    pub fn lru_page(&self) -> Option<VirtPage> {
        (self.tail != NIL).then(|| self.entries[self.tail as usize].page)
    }

    /// Swaps out the least recently used resident page to `slot`, returning
    /// it (`None` if no page is resident). Follows the tail link: no map
    /// probe.
    pub fn swap_out_lru(&mut self, slot: SwapSlot) -> Option<VirtPage> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        let entry = &mut self.entries[idx as usize];
        debug_assert_eq!(
            entry.state,
            PageState::Resident,
            "only resident pages are linked"
        );
        entry.state = PageState::Swapped(slot);
        self.resident -= 1;
        Some(entry.page)
    }

    fn unlink(&mut self, idx: u32) {
        let Entry { prev, next, .. } = self.entries[idx as usize];
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
        let entry = &mut self.entries[idx as usize];
        entry.prev = NIL;
        entry.next = NIL;
    }

    fn link_head(&mut self, idx: u32) {
        let old_head = self.head;
        let entry = &mut self.entries[idx as usize];
        entry.prev = NIL;
        entry.next = old_head;
        match old_head {
            NIL => self.tail = idx,
            h => self.entries[h as usize].prev = idx,
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LruList;
    use proptest::prelude::*;

    /// The resident pages, least recently used first, read off the links.
    fn lru_order(pt: &PageTable) -> Vec<VirtPage> {
        let mut order = Vec::new();
        let mut cursor = pt.tail;
        while cursor != NIL {
            let entry = &pt.entries[cursor as usize];
            assert!(matches!(entry.state, PageState::Resident));
            order.push(entry.page);
            cursor = entry.prev;
        }
        order
    }

    #[test]
    fn untouched_by_default() {
        let pt = PageTable::new();
        assert_eq!(pt.lookup(VirtPage(0)), PageState::Untouched);
        assert_eq!(pt.resident_pages(), 0);
        assert_eq!(pt.touched_pages(), 0);
        assert_eq!(pt.lru_page(), None);
    }

    #[test]
    fn map_and_swap_cycle() {
        let mut pt = PageTable::new();
        pt.map(VirtPage(1));
        assert!(pt.is_resident(VirtPage(1)));
        assert_eq!(pt.resident_pages(), 1);

        let evicted = pt.swap_out_lru(SwapSlot(7));
        assert_eq!(evicted, Some(VirtPage(1)));
        assert_eq!(pt.lookup(VirtPage(1)), PageState::Swapped(SwapSlot(7)));
        assert_eq!(pt.resident_pages(), 0);
        assert_eq!(pt.touched_pages(), 1);
        assert_eq!(pt.lru_page(), None);

        // Page back in.
        pt.map(VirtPage(1));
        assert_eq!(pt.lookup(VirtPage(1)), PageState::Resident);
        assert_eq!(pt.resident_pages(), 1);
        assert_eq!(pt.lru_page(), Some(VirtPage(1)));
    }

    #[test]
    fn swap_out_without_resident_pages_is_noop() {
        let mut pt = PageTable::new();
        assert_eq!(pt.swap_out_lru(SwapSlot(1)), None);
        pt.map(VirtPage(4));
        pt.swap_out_lru(SwapSlot(1));
        // Nothing left to evict: the table is unchanged.
        assert_eq!(pt.swap_out_lru(SwapSlot(2)), None);
        assert_eq!(pt.lookup(VirtPage(4)), PageState::Swapped(SwapSlot(1)));
        assert_eq!(pt.touched_pages(), 1);
    }

    #[test]
    fn remap_of_resident_page_does_not_double_count() {
        let mut pt = PageTable::new();
        pt.map(VirtPage(9));
        pt.map(VirtPage(9));
        assert_eq!(pt.resident_pages(), 1);
        assert_eq!(pt.lookup(VirtPage(9)), PageState::Resident);
        assert_eq!(lru_order(&pt), vec![VirtPage(9)]);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut pt = PageTable::new();
        for p in 0..4u64 {
            pt.map(VirtPage(p));
        }
        // Touch 0 and re-map 1: both move to the MRU end.
        assert_eq!(pt.lookup_touch(VirtPage(0)), PageState::Resident);
        pt.map(VirtPage(1));
        let order: Vec<u64> = lru_order(&pt).iter().map(|p| p.0).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
        let evicted: Vec<VirtPage> = (0..5)
            .filter_map(|i| pt.swap_out_lru(SwapSlot(100 + i)))
            .collect();
        assert_eq!(
            evicted,
            vec![VirtPage(2), VirtPage(3), VirtPage(0), VirtPage(1)]
        );
        assert_eq!(pt.lookup(VirtPage(0)), PageState::Swapped(SwapSlot(102)));
        assert_eq!(pt.resident_pages(), 0);
        assert_eq!(pt.touched_pages(), 4);
    }

    #[test]
    fn touching_a_swapped_page_does_not_relink_it() {
        let mut pt = PageTable::new();
        pt.map(VirtPage(1));
        pt.map(VirtPage(2));
        pt.swap_out_lru(SwapSlot(5));
        assert_eq!(
            pt.lookup_touch(VirtPage(1)),
            PageState::Swapped(SwapSlot(5))
        );
        assert_eq!(pt.lookup_touch(VirtPage(3)), PageState::Untouched);
        assert_eq!(lru_order(&pt), vec![VirtPage(2)]);
    }

    /// The historical pair the fused table replaces: a page → state map plus
    /// a separate resident LRU, kept in step by the caller.
    #[derive(Default)]
    struct SplitTable {
        entries: FxHashMap<VirtPage, PageState>,
        lru: LruList<VirtPage>,
        resident: u64,
    }

    impl SplitTable {
        fn lookup(&self, page: VirtPage) -> PageState {
            self.entries
                .get(&page)
                .copied()
                .unwrap_or(PageState::Untouched)
        }

        fn lookup_touch(&mut self, page: VirtPage) -> PageState {
            let state = self.lookup(page);
            if matches!(state, PageState::Resident) {
                self.lru.touch(&page);
            }
            state
        }

        fn map(&mut self, page: VirtPage) {
            let prev = self.entries.insert(page, PageState::Resident);
            if prev != Some(PageState::Resident) {
                self.resident += 1;
            }
            self.lru.push(page);
        }

        fn swap_out_lru(&mut self, slot: SwapSlot) -> Option<VirtPage> {
            let page = self.lru.pop_lru()?;
            let prev = self.entries.insert(page, PageState::Swapped(slot));
            assert_eq!(
                prev,
                Some(PageState::Resident),
                "LRU held a non-resident page"
            );
            self.resident -= 1;
            Some(page)
        }
    }

    proptest! {
        /// The resident counter always matches the number of pages on the
        /// resident LRU list.
        #[test]
        fn prop_resident_count_consistent(
            ops in proptest::collection::vec((0u64..32, any::<bool>()), 0..300),
        ) {
            let mut pt = PageTable::new();
            for (page, map_in) in ops {
                if map_in {
                    pt.map(VirtPage(page));
                } else {
                    let _ = pt.swap_out_lru(SwapSlot(page));
                }
                prop_assert_eq!(pt.resident_pages(), lru_order(&pt).len() as u64);
                prop_assert!(pt.resident_pages() <= pt.touched_pages());
            }
        }

        /// The fused table is observably the page-table-plus-LRU pair it
        /// replaces: after every step of random map, touch and evict-LRU
        /// sequences, every page's state, the resident LRU order (hence
        /// every future victim), the evicted victims and the
        /// resident/touched counts agree.
        #[test]
        fn prop_matches_split_reference(
            ops in proptest::collection::vec((0u8..4, 0u64..24, 0u64..1000), 0..300),
        ) {
            let mut pt = PageTable::with_capacity(8);
            let mut reference = SplitTable::default();
            for (op, page, n) in ops {
                let page = VirtPage(page);
                match op {
                    0 => {
                        pt.map(page);
                        reference.map(page);
                    }
                    1 => {
                        prop_assert_eq!(pt.lookup_touch(page), reference.lookup_touch(page));
                    }
                    _ => {
                        prop_assert_eq!(pt.lru_page(), reference.lru.peek_lru().copied());
                        prop_assert_eq!(
                            pt.swap_out_lru(SwapSlot(n)),
                            reference.swap_out_lru(SwapSlot(n))
                        );
                    }
                }
                prop_assert_eq!(pt.resident_pages(), reference.resident);
                prop_assert_eq!(pt.touched_pages(), reference.entries.len() as u64);
                let expected: Vec<VirtPage> = reference.lru.iter_lru_first().copied().collect();
                prop_assert_eq!(lru_order(&pt), expected);
                for p in 0..24u64 {
                    prop_assert_eq!(pt.lookup(VirtPage(p)), reference.lookup(VirtPage(p)));
                }
            }
        }
    }
}
