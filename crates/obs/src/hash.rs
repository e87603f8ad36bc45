//! FNV-1a 64-bit, the workspace's one content hash: parse-cache keys and
//! declaration-name keys, journal checksums, finding fingerprints, and
//! store-file checksums.

/// The FNV-1a 64-bit offset basis.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Folds one field: its bytes, then a `0xFF` separator byte so that
/// ("ab","c") != ("a","bc").
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    fnv1a_bytes(fnv1a_bytes(h, bytes), &[0xFF])
}
