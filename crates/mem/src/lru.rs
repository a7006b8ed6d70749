//! An LRU list with O(1) touch/evict: the reference model the fused
//! [`crate::PageTable`] is checked against in tests. (A process's resident
//! pages are ordered by its page table, and cached pages by the
//! [`crate::SwapCache`]'s own lists.)

use leap_sim_core::hash::FxHashMap;
use std::hash::Hash;

/// An ordered least-recently-used list over keys of type `K`.
///
/// Implemented as a doubly linked list over a slab of nodes plus a hash map
/// for O(1) lookup, giving O(1) `touch`, `push`, `pop_lru`, and `remove`.
///
#[derive(Debug, Clone)]
pub struct LruList<K: Eq + Hash + Clone> {
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    index: FxHashMap<K, usize>,
    head: Option<usize>, // most recently used
    tail: Option<usize>, // least recently used
}

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: Option<usize>,
    next: Option<usize>,
}

impl<K: Eq + Hash + Clone> Default for LruList<K> {
    fn default() -> Self {
        LruList::new()
    }
}

impl<K: Eq + Hash + Clone> LruList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList {
            nodes: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
            head: None,
            tail: None,
        }
    }

    /// Number of keys on the list.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Inserts `key` as the most recently used entry.
    ///
    /// If the key is already present it is just moved to the MRU position.
    pub fn push(&mut self, key: K) {
        if self.index.contains_key(&key) {
            self.touch(&key);
            return;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node {
                    key: key.clone(),
                    prev: None,
                    next: self.head,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    prev: None,
                    next: self.head,
                });
                self.nodes.len() - 1
            }
        };
        if let Some(old_head) = self.head {
            self.nodes[old_head].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
        self.index.insert(key, idx);
    }

    /// Moves `key` to the MRU position; returns false if it is not present.
    pub fn touch(&mut self, key: &K) -> bool {
        let idx = match self.index.get(key) {
            Some(&i) => i,
            None => return false,
        };
        self.unlink(idx);
        // Relink at head.
        self.nodes[idx].prev = None;
        self.nodes[idx].next = self.head;
        if let Some(old_head) = self.head {
            self.nodes[old_head].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
        true
    }

    /// Removes and returns the least recently used key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let tail = self.tail?;
        let key = self.nodes[tail].key.clone();
        self.unlink(tail);
        self.free.push(tail);
        self.index.remove(&key);
        Some(key)
    }

    /// Peeks at the least recently used key without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        self.tail.map(|t| &self.nodes[t].key)
    }

    /// Removes an arbitrary key; returns true if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let idx = match self.index.remove(key) {
            Some(i) => i,
            None => return false,
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Iterates from least recently used to most recently used.
    pub fn iter_lru_first(&self) -> LruIter<'_, K> {
        LruIter {
            list: self,
            cursor: self.tail,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.nodes[idx].prev = None;
        self.nodes[idx].next = None;
    }
}

/// Iterator over an [`LruList`] from LRU to MRU.
#[derive(Debug)]
pub struct LruIter<'a, K: Eq + Hash + Clone> {
    list: &'a LruList<K>,
    cursor: Option<usize>,
}

impl<'a, K: Eq + Hash + Clone> Iterator for LruIter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        let idx = self.cursor?;
        self.cursor = self.list.nodes[idx].prev;
        Some(&self.list.nodes[idx].key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eviction_order_is_lru() {
        let mut lru = LruList::new();
        for i in 0..5u64 {
            lru.push(i);
        }
        assert_eq!(lru.pop_lru(), Some(0));
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut lru = LruList::new();
        lru.push(1u64);
        lru.push(2);
        lru.push(3);
        assert!(lru.touch(&1));
        assert_eq!(lru.pop_lru(), Some(2));
        assert_eq!(lru.pop_lru(), Some(3));
        assert_eq!(lru.pop_lru(), Some(1));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn touch_of_missing_key_is_false() {
        let mut lru: LruList<u64> = LruList::new();
        assert!(!lru.touch(&9));
    }

    #[test]
    fn duplicate_push_acts_as_touch() {
        let mut lru = LruList::new();
        lru.push(1u64);
        lru.push(2);
        lru.push(1);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.pop_lru(), Some(2));
    }

    #[test]
    fn remove_arbitrary_key() {
        let mut lru = LruList::new();
        for i in 0..4u64 {
            lru.push(i);
        }
        assert!(lru.remove(&2));
        assert!(!lru.remove(&2));
        let order: Vec<u64> = std::iter::from_fn(|| lru.pop_lru()).collect();
        assert_eq!(order, vec![0, 1, 3]);
    }

    #[test]
    fn iter_lru_first_matches_pop_order() {
        let mut lru = LruList::new();
        for i in 0..6u64 {
            lru.push(i);
        }
        lru.touch(&0);
        let iterated: Vec<u64> = lru.iter_lru_first().copied().collect();
        let popped: Vec<u64> = std::iter::from_fn(|| lru.pop_lru()).collect();
        assert_eq!(iterated, popped);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut lru = LruList::new();
        lru.push(7u64);
        assert_eq!(lru.peek_lru(), Some(&7));
        assert_eq!(lru.len(), 1);
    }

    proptest! {
        /// The list agrees with a reference model (Vec-based LRU) on every
        /// operation sequence.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec((0u8..4, 0u64..16), 0..300),
        ) {
            let mut lru = LruList::new();
            let mut model: Vec<u64> = Vec::new(); // front = LRU, back = MRU
            for (op, key) in ops {
                match op {
                    0 => {
                        // push
                        if let Some(pos) = model.iter().position(|&k| k == key) {
                            model.remove(pos);
                        }
                        model.push(key);
                        lru.push(key);
                    }
                    1 => {
                        // touch
                        let expected = if let Some(pos) = model.iter().position(|&k| k == key) {
                            model.remove(pos);
                            model.push(key);
                            true
                        } else {
                            false
                        };
                        prop_assert_eq!(lru.touch(&key), expected);
                    }
                    2 => {
                        // pop_lru
                        let expected = if model.is_empty() { None } else { Some(model.remove(0)) };
                        prop_assert_eq!(lru.pop_lru(), expected);
                    }
                    _ => {
                        // remove
                        let expected = if let Some(pos) = model.iter().position(|&k| k == key) {
                            model.remove(pos);
                            true
                        } else {
                            false
                        };
                        prop_assert_eq!(lru.remove(&key), expected);
                    }
                }
                prop_assert_eq!(lru.len(), model.len());
                let listed: Vec<u64> = lru.iter_lru_first().copied().collect();
                prop_assert_eq!(listed, model.clone());
            }
        }
    }
}
