//! # dj-hash — hashing & similarity substrate
//!
//! Everything Data-Juicer's Deduplicators need (paper §3.2, Table 1: "compare
//! with hash-based and vector-based deduplication methods"):
//!
//! * [`fxhash`] — fast 64/128-bit non-cryptographic hashing plus
//!   `FxHashMap`/`FxHashSet` aliases (the perf-book recommendation for
//!   hot, HashDoS-immune hash tables);
//! * [`minhash`] — min-wise independent permutations + LSH band keys
//!   (hash-based near-dedup);
//! * [`simhash`] — Charikar fingerprints, cut into 16-bit blocks for
//!   candidate generation (vector-based near-dedup);
//! * [`unionfind`] — lock-free duplicate-pair clustering with
//!   deterministic first-occurrence retention.
//!
//! Near-duplicate clustering partitions its work per band or block: a
//! MinHash band folded into one word by [`band_key`], or one of a SimHash
//! fingerprint's [`SIMHASH_BLOCKS`] 16-bit blocks. Either becomes the key
//! of a `(key, id)` sort whose runs of equal keys are the candidates.

pub mod fnv;
pub mod fxhash;
pub mod minhash;
pub mod simhash;
pub mod unionfind;

pub use fnv::{fnv1a, Fnv1a};
pub use fxhash::{
    checksum64, hash128, hash64, hash64_seeded, FxBuildHasher, FxHashMap, FxHashSet, FxHasher,
};
pub use minhash::{band_key, Lanes, MinHasher};
pub use simhash::{hamming, simhash_tokens, simhash_weighted, SIMHASH_BLOCKS};
pub use unionfind::ConcurrentUnionFind;
