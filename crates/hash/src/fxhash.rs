//! Fast non-cryptographic hashing.
//!
//! Data-Juicer's deduplicators fingerprint billions of shingles; SipHash (the
//! std default) is needlessly slow for that. This module implements an
//! Fx-style multiply-xor word hasher (the algorithm used inside rustc) plus a
//! seedable 64-bit string hash used to derive the independent MinHash
//! permutations.
//!
//! The same hash under a fixed nonzero seed, [`checksum64`], is a *format*
//! hash: it is the checksum of every sealed frame envelope
//! (`dj-store::frame`; [`Checksum64`] sums a frame written in pieces), so
//! its bit pattern is pinned by the known-answer tests below like
//! [`crate::fnv`]'s. It folds a word per multiply — several times FNV-1a's
//! byte-at-a-time rate — and each step is a bijection of the word it takes
//! in, so one flipped bit anywhere always changes the result. The seed
//! keeps the state off zero, so no run of zero bytes sums to zero. It
//! guards against damage, not against an adversary. [`hash64`] (seed 0)
//! and the hash-table hasher [`FxHasher`] share the algorithm; nothing
//! persists their output.

use std::hash::{BuildHasherDefault, Hasher};

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher: fast, low-quality-but-sufficient mixing.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the remainder length so "a" and "a\0" differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche (xorshift-multiply) to spread low-entropy inputs.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// `BuildHasher` for `HashMap`/`HashSet` with [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash arbitrary bytes to 64 bits with a seed (independent hash families).
#[inline]
pub fn hash64_seeded(bytes: &[u8], seed: u64) -> u64 {
    let mut h = FxHasher { hash: seed };
    h.write(bytes);
    h.finish()
}

/// Hash arbitrary bytes to 64 bits (seed 0).
#[inline]
pub fn hash64(bytes: &[u8]) -> u64 {
    hash64_seeded(bytes, 0)
}

/// Seed of [`checksum64`]. Any nonzero constant keeps a zero word from
/// leaving the state at zero; this one is the bytes `djsealed`.
const CHECKSUM_SEED: u64 = u64::from_le_bytes(*b"djsealed");

/// The checksum of bytes this workspace seals and reads back (frame
/// envelopes, egress parts): [`hash64_seeded`] under a fixed nonzero
/// seed, so an all-zero buffer never sums to an all-zero checksum field.
#[inline]
pub fn checksum64(bytes: &[u8]) -> u64 {
    hash64_seeded(bytes, CHECKSUM_SEED)
}

/// [`checksum64`] of bytes that arrive in pieces: the sum of their
/// concatenation, wherever it is cut. A word split between two pieces is
/// held until it is whole.
#[derive(Clone)]
pub struct Checksum64 {
    hasher: FxHasher,
    /// The bytes of a word not yet whole.
    pending: [u8; 8],
    pending_len: usize,
}

impl Default for Checksum64 {
    fn default() -> Checksum64 {
        Checksum64 {
            hasher: FxHasher {
                hash: CHECKSUM_SEED,
            },
            pending: [0; 8],
            pending_len: 0,
        }
    }
}

impl Checksum64 {
    pub fn new() -> Checksum64 {
        Checksum64::default()
    }

    /// Add the next piece.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.hasher.add_to_hash(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.hasher
                .add_to_hash(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rem = words.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
    }

    /// The sum of every piece added, in order.
    pub fn finish(mut self) -> u64 {
        let tail = self.pending;
        self.hasher.write(&tail[..self.pending_len]);
        self.hasher.finish()
    }
}

/// Hash a string to 128 bits by combining two independent 64-bit hashes.
/// Used as an exact-duplicate document fingerprint where 64 bits would risk
/// birthday collisions at billion-document scale.
#[inline]
pub fn hash128(bytes: &[u8]) -> u128 {
    let lo = hash64_seeded(bytes, 0x9e37_79b9_7f4a_7c15);
    let hi = hash64_seeded(bytes, 0xc2b2_ae3d_27d4_eb4f);
    ((hi as u128) << 64) | lo as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        assert_eq!(hash64(b"hello"), hash64(b"hello"));
        assert_ne!(hash64(b"hello"), hash64(b"hellp"));
        assert_ne!(hash64_seeded(b"hello", 1), hash64_seeded(b"hello", 2));
    }

    /// `checksum64` seals frames on disk: if any of these constants
    /// changes, every sealed frame and column region written before reads
    /// as damage.
    #[test]
    fn known_answer_vectors() {
        assert_eq!(checksum64(b""), 0xa718_6e0e_8393_6843);
        assert_eq!(checksum64(b"a"), 0x49db_3ed3_cef7_ad65);
        assert_eq!(checksum64(b"\0"), 0x31ce_1632_acd9_3f7d);
        assert_eq!(checksum64(b"foobar"), 0x0538_8ece_15d1_66a9);
        assert_eq!(checksum64(b"12345678"), 0xe95d_266e_948e_5320);
        assert_eq!(checksum64(b"chongo was here!\n"), 0x5920_3683_374a_d009);
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(checksum64(&all), 0x1eeb_75f9_216e_cff2);
    }

    /// Pieces sum to what their concatenation sums to, however the bytes
    /// are cut: pieces shorter than a word, empty ones, none at all.
    #[test]
    fn a_checksum_in_pieces_is_the_checksum_of_the_whole() {
        let data: Vec<u8> = (0u16..300).map(|b| (b * 37 % 251) as u8).collect();
        for len in [0, 1, 7, 8, 9, 16, 63, 300] {
            let whole = checksum64(&data[..len]);
            for cuts in [
                vec![],
                vec![0],
                vec![3],
                vec![1, 2, 3],
                vec![5, 5, 13],
                vec![8, 16],
            ] {
                let mut sum = Checksum64::new();
                let mut at = 0;
                for cut in cuts.into_iter().map(|c| c.min(len)) {
                    let end = cut.max(at);
                    sum.update(&data[at..end]);
                    at = end;
                }
                sum.update(&data[at..len]);
                assert_eq!(sum.finish(), whole, "{len} bytes");
            }
        }
    }

    /// The checksum property the envelope relies on: every single-bit
    /// flip of a buffer changes its sum.
    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let data: Vec<u8> = (0u8..37).map(|b| b.wrapping_mul(71)).collect();
        let sum = checksum64(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&flipped), sum, "bit {bit}");
        }
    }

    /// A torn write that zeroes a payload and its checksum field together
    /// must not read back: no run of zero bytes sums to zero (under seed 0
    /// every run of whole zero words did).
    #[test]
    fn no_run_of_zero_bytes_sums_to_zero() {
        let zeros = vec![0u8; 1 << 16];
        for len in (0..=4096).chain([1 << 15, (1 << 16) - 1, 1 << 16]) {
            assert_ne!(checksum64(&zeros[..len]), 0, "{len} zero bytes");
        }
        assert_eq!(hash64(&zeros[..64]), 0, "seed 0 is why the seed exists");
    }

    #[test]
    fn remainder_length_matters() {
        assert_ne!(hash64(b"a"), hash64(b"a\0"));
        assert_ne!(hash64(b""), hash64(b"\0"));
    }

    #[test]
    fn hash128_combines_independent_halves() {
        let h = hash128(b"doc");
        assert_ne!((h >> 64) as u64, h as u64);
        assert_eq!(h, hash128(b"doc"));
        assert_ne!(hash128(b"doc"), hash128(b"Doc"));
    }

    #[test]
    fn distribution_sanity_low_bits() {
        // 4k sequential keys should spread across 16 buckets roughly evenly.
        let mut buckets = [0usize; 16];
        for i in 0..4096u32 {
            let h = hash64(&i.to_le_bytes());
            buckets[(h & 15) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 128, "bucket underfilled: {b}");
        }
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("k".into(), 1);
        assert_eq!(m.get("k"), Some(&1));
    }
}
