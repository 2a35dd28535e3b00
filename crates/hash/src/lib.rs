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
//! * [`simhash`] — Charikar fingerprints + Hamming-budget index
//!   (vector-based near-dedup);
//! * [`unionfind`] — duplicate-pair clustering with deterministic
//!   first-occurrence retention, sequential and lock-free concurrent.
//!
//! The entry points the parallel deduplicators partition work by are
//! per band or block: [`band_key`] (a MinHash band folded into one word,
//! sorted into runs of candidates) and [`simhash_block_pairs`] (one
//! rotation block's pairs, identical to what the sequential
//! [`SimHashIndex`] surfaces for it).

pub mod fnv;
pub mod fxhash;
pub mod minhash;
pub mod simhash;
pub mod unionfind;

pub use fnv::{fnv1a, Fnv1a};
pub use fxhash::{hash128, hash64, hash64_seeded, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use minhash::{band_key, Lanes, MinHasher};
pub use simhash::{
    hamming, simhash_block_pairs, simhash_tokens, simhash_weighted, SimHashIndex, SIMHASH_BLOCKS,
};
pub use unionfind::{ConcurrentUnionFind, UnionFind};
