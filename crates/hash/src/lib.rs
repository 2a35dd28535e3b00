//! # dj-hash — hashing & similarity substrate
//!
//! Everything Data-Juicer's Deduplicators need (paper §3.2, Table 1: "compare
//! with hash-based and vector-based deduplication methods"):
//!
//! * [`fxhash`] — fast 64/128-bit non-cryptographic hashing plus
//!   `FxHashMap`/`FxHashSet` aliases (the perf-book recommendation for
//!   hot, HashDoS-immune hash tables);
//! * [`minhash`] — min-wise independent permutations + LSH banding
//!   (hash-based near-dedup);
//! * [`simhash`] — Charikar fingerprints + Hamming-budget index
//!   (vector-based near-dedup);
//! * [`unionfind`] — duplicate-pair clustering with deterministic
//!   first-occurrence retention, sequential and lock-free concurrent.
//!
//! The banded exchange entry points ([`lsh_band_pairs`],
//! [`simhash_block_pairs`], [`LshIndex::band_key`]) let the parallel
//! deduplicators partition candidate generation by band/block across a
//! worker pool while staying pair-for-pair identical to the sequential
//! indexes.

pub mod fnv;
pub mod fxhash;
pub mod minhash;
pub mod simhash;
pub mod unionfind;

pub use fnv::{fnv1a, Fnv1a};
pub use fxhash::{hash128, hash64, hash64_seeded, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use minhash::{lsh_band_pairs, Lanes, LshIndex, MinHasher};
pub use simhash::{
    hamming, simhash_block_pairs, simhash_tokens, simhash_weighted, SimHashIndex, SIMHASH_BLOCKS,
};
pub use unionfind::{ConcurrentUnionFind, UnionFind};
