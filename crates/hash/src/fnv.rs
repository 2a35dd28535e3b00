//! FNV-1a: the stable checksum/fingerprint hash for published bytes and
//! keys.
//!
//! FNV-1a is a *format* hash wherever its bits are published or used as a
//! key: `manifest.json` part checksums, quarantine record checksums,
//! recipe op identities and the cache keys chained from them (each cache
//! entry is a file named by one). Those bit patterns are part of the
//! persistence contract and must never change; the known-answer tests
//! below pin the published FNV-1a test vectors.
//!
//! It is a serial byte-at-a-time multiply, so the bytes the engine seals
//! and re-reads itself — frame envelopes and `DJSC` column regions — are
//! checksummed with the word-at-a-time [`crate::fxhash::checksum64`]
//! instead.

/// FNV-1a 64-bit offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash `bytes` with 64-bit FNV-1a.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV1A_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV1A_PRIME);
    }
    h
}

/// Streaming FNV-1a hasher for callers that feed data incrementally
/// (e.g. writers checksumming as they stream shard frames out).
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a {
            state: FNV1A_OFFSET,
        }
    }

    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV1A_PRIME);
        }
    }

    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64-bit test vectors (Landon Curt Noll's reference
    /// suite). These constants pin the published checksums and keys: if any
    /// of them changes, every existing manifest and quarantine file is
    /// invalidated, and every op identity and cache key changes (every
    /// cache entry becomes a miss).
    #[test]
    fn known_answer_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"b"), 0xaf63_df4c_8601_f1a5);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(b"chongo was here!\n"), 0x4681_0940_eff5_f915);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, data.len()] {
            let mut h = Fnv1a::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), fnv1a(data), "split={split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        // Not a collision-resistance claim, just a sanity check that the
        // fold actually mixes (catches e.g. a dropped multiply).
        let hashes: std::collections::BTreeSet<u64> =
            (0u32..1000).map(|i| fnv1a(&i.to_le_bytes())).collect();
        assert_eq!(hashes.len(), 1000);
    }
}
