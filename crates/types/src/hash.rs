//! A fast, deterministic hasher for the simulator's integer-keyed maps.
//!
//! The per-request maps (MSHRs, completion sets, latency bookkeeping, the
//! request auditor) are keyed by block addresses, request ids and waiter
//! tokens. SipHash's flood resistance buys nothing there: a crafted trace
//! could at worst slow its own run. One multiply per word does the job.
//! Iteration order is fixed but meaningless; every snapshot sorts.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word hasher: `h = (h.rotl(5) ^ word) * K`, finished by
/// a rotation that brings the well-mixed high bits down to the bucket
/// index (block addresses have their low bits all zero).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

/// Odd constant with a balanced bit pattern (from `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

/// [`std::collections::HashMap`]/`HashSet` builder for [`IntHasher`].
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by simulator-internal integers.
pub type IntMap<K, V> = std::collections::HashMap<K, V, IntBuildHasher>;

/// A `HashSet` of simulator-internal integers.
pub type IntSet<T> = std::collections::HashSet<T, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_deterministic_and_spreads_aligned_keys() {
        let build = IntBuildHasher::default();
        assert_eq!(build.hash_one(0x40u64), build.hash_one(0x40u64));
        // 64-byte-aligned block addresses must still fill the low bits a
        // hash table indexes with.
        let buckets: std::collections::HashSet<u64> =
            (0..256u64).map(|b| build.hash_one(b * 64) & 255).collect();
        assert!(buckets.len() > 128, "{} of 256 buckets hit", buckets.len());
    }
}
