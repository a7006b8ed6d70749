//! Byte-size constants and page geometry shared across the workspace.

/// One kibibyte.
pub(crate) const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// The page size used throughout the reproduction (4 KB, as in the paper).
pub const PAGE_SIZE: u64 = 4 * KIB;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Converts a byte count into the number of pages needed to hold it
/// (rounding up).
///
/// # Examples
///
/// ```
/// use leap_sim_core::units::{bytes_to_pages, PAGE_SIZE};
/// assert_eq!(bytes_to_pages(0), 0);
/// assert_eq!(bytes_to_pages(1), 1);
/// assert_eq!(bytes_to_pages(PAGE_SIZE), 1);
/// assert_eq!(bytes_to_pages(PAGE_SIZE + 1), 2);
/// ```
pub const fn bytes_to_pages(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 1 << PAGE_SHIFT);
        assert_eq!(MIB / KIB, 1024);
        assert_eq!(GIB / MIB, 1024);
    }

    #[test]
    fn bytes_to_pages_rounds_up() {
        assert_eq!(bytes_to_pages(0), 0);
        assert_eq!(bytes_to_pages(PAGE_SIZE - 1), 1);
        assert_eq!(bytes_to_pages(PAGE_SIZE), 1);
        assert_eq!(bytes_to_pages(10 * PAGE_SIZE + 5), 11);
    }
}
