//! Identifier types for the memory-management substrate.

use std::fmt;

/// A process identifier.
///
/// Leap isolates page-access tracking per process (§4.1); the simulator uses
/// `Pid` to key per-process page tables, access histories, and prefetchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A virtual page number within one process's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtPage(pub u64);

impl fmt::Display for VirtPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:#x}", self.0)
    }
}

/// An offset into the (shared) swap area, in pages.
///
/// Swap slots are what the remote-memory backend stores and what the Leap
/// prefetcher observes: the page access tracker records *swap-offset* deltas,
/// not virtual-address deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SwapSlot(pub u64);

impl fmt::Display for SwapSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Pid(3)), "pid3");
        assert_eq!(format!("{}", VirtPage(255)), "v0xff");
        assert_eq!(format!("{}", SwapSlot(16)), "s0x10");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SwapSlot(2) < SwapSlot(10));
        assert!(VirtPage(2) < VirtPage(10));
    }
}
