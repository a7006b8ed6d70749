//! A dependency-free specialized hasher for the simulation hot paths.
//!
//! The fault hot path probes several maps per access (page table, swap
//! cache, swap-slot ownership, LRU index, per-process prefetcher routing).
//! `std::collections::HashMap`'s default SipHash-1-3 is a keyed PRF built to
//! resist hash-flooding from untrusted input — overkill for a deterministic
//! simulator hashing its own small integer keys, and measurably slow at ~1–2
//! ns/byte with per-instance key setup.
//!
//! [`FxHasher`] is the multiply-xor scheme popularised by Firefox and used
//! throughout rustc (`rustc_hash`): fold each 8-byte chunk into the state
//! with a rotate, xor, and one multiplication by a 64-bit constant derived
//! from the golden ratio. One multiply per word is 5–10× faster than SipHash
//! on the 8-byte keys every hot map here uses, and — unlike `RandomState` —
//! it is *deterministic across runs and processes*, so map iteration order
//! (where it matters for debugging) is reproducible too.
//!
//! The trade-off is the usual one: no flooding resistance. Every key hashed
//! in this workspace originates from the simulator itself (slot numbers,
//! page numbers, pids, deltas), never from untrusted input.
//!
//! The module also holds the FNV constants and fold step behind every
//! event-stream checksum in the workspace (fault, recovery, prefetch-outcome,
//! pipeline and tenant-QoS ledgers), so those fingerprints share one
//! definition.
//!
//! # Examples
//!
//! ```
//! use leap_sim_core::hash::FxHashMap;
//!
//! let mut residency: FxHashMap<u64, bool> = FxHashMap::default();
//! residency.insert(0x42, true);
//! assert_eq!(residency.get(&0x42), Some(&true));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant: `2^64 / φ`, the same odd constant `rustc_hash`
/// uses. Multiplication by a large odd constant mixes low-order key bits
/// into the high-order hash bits that hashbrown's control bytes consume.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rotation applied before each fold so consecutive words land in different
/// bit positions.
const ROTATE: u32 = 5;

/// FNV-1a 64-bit offset basis: the value every event-stream checksum starts
/// from, and the origin shard checksums measure their drift against.
pub const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime the checksums fold words with.
pub const CHECKSUM_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The ordered checksum fold step, `checksum * PRIME + word` (wrapping):
/// folding the same words in a different order gives a different value.
#[inline]
pub fn checksum_fold(checksum: u64, word: u64) -> u64 {
    checksum.wrapping_mul(CHECKSUM_PRIME).wrapping_add(word)
}

/// The FxHash streaming hasher: one rotate + xor + multiply per 8-byte word.
///
/// Use through `FxBuildHasher` / [`FxHashMap`] rather than
/// directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // hashbrown takes the *top* bits for its control bytes; the final
        // multiply already pushed the entropy there, so no extra finalizer
        // is needed (matching rustc_hash's behaviour).
        self.hash
    }
}

/// A [`std::hash::BuildHasher`] producing [`FxHasher`]s; stateless, so every
/// map built from it hashes identically (deterministic across runs).
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — drop-in for the std map on hot
/// paths whose keys the simulator itself generates.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// An [`FxHashMap`] pre-sized for `capacity` entries, so maps whose maximum
/// population is known from configuration never rehash on the hot path.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&0xDEAD_BEEFu64), hash_of(&0xDEAD_BEEFu64));
        assert_eq!(hash_of(&(1u32, 2usize)), hash_of(&(1u32, 2usize)));
    }

    #[test]
    fn distinct_keys_hash_differently() {
        // Not a cryptographic property, just a sanity check that the mixer
        // is not degenerate on the key shapes the hot maps use.
        let hashes: Vec<u64> = (0u64..1024).map(|k| hash_of(&k)).collect();
        let mut deduped = hashes.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), hashes.len());
    }

    #[test]
    fn sequential_keys_spread_over_top_bits() {
        // hashbrown selects buckets from the *high* bits: sequential slot
        // numbers (the common key pattern here) must not collapse onto a few
        // top-bit patterns.
        let mut top_bytes = [0u32; 256];
        for k in 0u64..4096 {
            top_bytes[(hash_of(&k) >> 56) as usize] += 1;
        }
        let populated = top_bytes.iter().filter(|&&c| c > 0).count();
        assert!(populated > 128, "only {populated} of 256 top bytes used");
    }

    #[test]
    fn byte_slices_and_tail_lengths_hash() {
        let a = hash_of(&[1u8, 2, 3]);
        let b = hash_of(&[1u8, 2, 3, 0]);
        assert_ne!(a, b, "length must influence the hash");
    }

    #[test]
    fn map_alias_presizes() {
        let mut m: FxHashMap<u64, u64> = fx_map_with_capacity(16);
        let cap = m.capacity();
        for i in 0..16u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.capacity(), cap, "pre-sized map must not grow");
        assert_eq!(m.get(&7), Some(&14));
    }
}
