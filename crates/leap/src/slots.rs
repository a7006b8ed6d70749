//! Per-process state indexed by pid.
//!
//! Every front-end and the service number their processes `Pid(i + 1)`, so
//! state kept per process (page tables, memory limits, prefetcher
//! instances) lives in a vector indexed by the pid rather than in a hash
//! map: a lookup on the fault path is one bounds check and one load.

use leap_mem::Pid;

/// The most slots a [`Slots`] grows to. Pids are small and dense, so a
/// larger index is a caller's mistake: failing loudly beats allocating
/// gigabytes for one stray pid.
const MAX_SLOTS: usize = 1 << 20;

/// The slot of `pid` in a pid-indexed [`Slots`].
pub(crate) fn pid_slot(pid: Pid) -> usize {
    pid.0 as usize
}

/// Values indexed by a small dense integer — a pid ([`pid_slot`]), or a
/// pid and core — growing to the largest index inserted.
#[derive(Debug, Clone)]
pub(crate) struct Slots<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots { slots: Vec::new() }
    }
}

impl<T> Slots<T> {
    /// The value at `index`, if one was inserted.
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.slots.get(index)?.as_ref()
    }

    /// The value at `index`, mutably, if one was inserted.
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.slots.get_mut(index)?.as_mut()
    }

    /// Stores `value` at `index`, replacing any previous value.
    pub(crate) fn insert(&mut self, index: usize, value: T) {
        *self.slot(index) = Some(value);
    }

    /// The value at `index`, inserting `make()` first if there is none.
    pub(crate) fn get_or_insert_with(&mut self, index: usize, make: impl FnOnce() -> T) -> &mut T {
        if self.get(index).is_none() {
            self.insert(index, make());
        }
        self.get_mut(index).expect("occupied slot")
    }

    /// Every stored value, in index order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// The indices that hold a value, in order.
    #[cfg(test)]
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.as_ref().map(|_| index))
    }

    /// The slot at `index`, growing the vector to reach it.
    fn slot(&mut self, index: usize) -> &mut Option<T> {
        assert!(
            index < MAX_SLOTS,
            "slot {index} is past the dense pid range (processes are numbered from Pid(1))"
        );
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        &mut self.slots[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grow_to_the_largest_index() {
        let mut slots = Slots::default();
        assert_eq!(slots.get(3), None);
        slots.insert(3, "c");
        slots.insert(1, "a");
        assert_eq!(slots.get(1), Some(&"a"));
        assert_eq!(slots.get(2), None);
        assert_eq!(*slots.get_or_insert_with(2, || "b"), "b");
        assert_eq!(*slots.get_or_insert_with(2, || "x"), "b");
        *slots.get_mut(3).expect("inserted") = "d";
        assert_eq!(slots.indices().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(slots.values_mut().map(|v| *v).collect::<String>(), "abd");
        assert_eq!(slots.get(pid_slot(Pid(1))), Some(&"a"));
    }

    #[test]
    #[should_panic(expected = "past the dense pid range")]
    fn stray_indices_fail_loudly() {
        Slots::default().insert(MAX_SLOTS, ());
    }
}
