//! A fast, deterministic hasher for the solver's hot maps.
//!
//! The constraint generator performs hundreds of thousands of lookups on
//! tiny keys (u32 pairs, short names); std's default SipHash dominates
//! that profile. This is an FxHash-style multiply-rotate hasher: not
//! DoS-resistant (irrelevant — keys come from the parsed program, and
//! iteration order is never observable in analysis results), but several
//! times faster on small keys and fully deterministic across runs.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher (the rustc FxHash recipe).
#[derive(Default)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// [`FastHasher`] finished with an avalanche step (murmur3's `fmix64`), so
/// every output bit depends on every input bit. Short names that differ
/// in a few characters (`fn_0123`, `fn_0124`, ...) then spread over the
/// table instead of clustering in a few probe groups.
#[derive(Default)]
pub struct MixHasher(FastHasher);

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0.finish();
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0.write_u8(n);
    }
}

/// A `HashMap` keyed with [`MixHasher`].
pub type MixMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// A `HashSet` keyed with [`MixHasher`].
pub type MixSet<K> = std::collections::HashSet<K, BuildHasherDefault<MixHasher>>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed with [`FastHasher`].
pub type FastSet<K> = std::collections::HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastMap::default();
        a.insert((1u32, 2u32), "x");
        assert_eq!(a.get(&(1, 2)), Some(&"x"));
        let mut h1 = FastHasher::default();
        h1.write(b"hello world");
        let mut h2 = FastHasher::default();
        h2.write(b"hello world");
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn tail_bytes_distinguish_lengths() {
        let mut h1 = FastHasher::default();
        h1.write(b"ab");
        let mut h2 = FastHasher::default();
        h2.write(b"ab\0");
        assert_ne!(h1.finish(), h2.finish());
    }
}
