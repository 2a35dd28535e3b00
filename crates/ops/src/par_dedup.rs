//! The clustering behind every
//! [`Deduplicator::cluster`](dj_core::Deduplicator::cluster), one code path
//! per strategy at every worker count. Each mask retains the minimum index
//! of each duplicate component:
//!
//! * **MinHash**, by LSH band, and **SimHash**, by 16-bit block: one pool
//!   section in which each worker sorts `(key, id)` words for the bands or
//!   blocks it owns and walks the runs of equal keys straight into a
//!   lock-free [`ConcurrentUnionFind`], probing it before each verification
//!   ([`ParallelDedup::minhash_mask`], [`ParallelDedup::simhash_mask`]).
//! * **Exact and paragraph hashes**: one first-occurrence pass on the
//!   calling thread ([`ParallelDedup::exact_mask`],
//!   [`ParallelDedup::paragraph_mask`]). A hash-set insert per key is about
//!   all the work there is, so splitting it across workers only adds a
//!   serial merge of their partial elections.
//!
//! Workers are a pure performance knob: the mask is the same for every
//! worker count, and each strategy is held to an all-pairs oracle in
//! `tests/ops_reference` (`tests/dedup_parallel.rs`).

use dj_core::{Fingerprints, WorkerPool};
use dj_hash::{band_key, hamming, ConcurrentUnionFind, FxHashSet, MinHasher, SIMHASH_BLOCKS};

/// Worker-count-aware clustering over precomputed fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDedup {
    workers: usize,
}

impl ParallelDedup {
    pub fn new(workers: usize) -> ParallelDedup {
        ParallelDedup {
            workers: workers.max(1),
        }
    }

    /// MinHash-LSH keep mask. `words` holds the signatures back to back,
    /// `bands * rows` words each.
    ///
    /// One pool section: worker `w` owns bands `w, w + workers, …`. It
    /// walks the signatures once, in sample order, pushing `(band_key, id)`
    /// into one flat buffer per owned band, then hands each buffer to
    /// `union_runs`, which unions the members of a run whose similarity
    /// reaches the threshold. A find is far cheaper than comparing two
    /// `bands × rows` signatures, so the probe comes first.
    pub fn minhash_mask(
        &self,
        words: &[u64],
        bands: usize,
        rows: usize,
        jaccard_threshold: f64,
    ) -> Vec<bool> {
        let width = bands * rows;
        assert!(
            width > 0 && words.len().is_multiple_of(width),
            "signatures must be bands*rows words each"
        );
        let n = words.len() / width;
        let signature = |i: usize| &words[i * width..(i + 1) * width];
        let id_bits = id_bits(n);
        let uf = ConcurrentUnionFind::new(n);
        let band_workers = self.workers.min(bands);
        WorkerPool::global().run_indexed(band_workers, band_workers, |w| {
            let owned: Vec<usize> = (w..bands).step_by(band_workers).collect();
            let mut keys: Vec<Vec<u64>> = owned.iter().map(|_| Vec::with_capacity(n)).collect();
            for (id, sig) in words.chunks_exact(width).enumerate() {
                for (band_keys, &band) in keys.iter_mut().zip(&owned) {
                    band_keys.push((band_key(band, rows, sig) << id_bits) | id as u64);
                }
            }
            for band_keys in &mut keys {
                union_runs(band_keys, id_bits, &uf, |i, j| {
                    MinHasher::similarity(signature(i), signature(j)) >= jaccard_threshold
                });
            }
        });
        uf.first_occurrence_mask()
    }

    /// SimHash keep mask, one fingerprint word per sample: two samples are
    /// one component when a chain of pairs links them, each pair agreeing
    /// exactly on some 16-bit block and within `max_distance` bits.
    ///
    /// One pool section: worker `w` owns blocks `w, w + workers, …` of the
    /// [`SIMHASH_BLOCKS`]. For each it fills one reused buffer with
    /// `(block value, id)` and hands it to `union_runs`, which unions the
    /// members of a run within the Hamming budget. Memory is that buffer,
    /// one word per sample, however long a run of equal blocks is.
    pub fn simhash_mask(&self, fingerprints: &[u64], max_distance: u32) -> Vec<bool> {
        let n = fingerprints.len();
        let id_bits = id_bits(n);
        let uf = ConcurrentUnionFind::new(n);
        let block_workers = self.workers.min(SIMHASH_BLOCKS);
        WorkerPool::global().run_indexed(block_workers, block_workers, |w| {
            let mut entries = Vec::with_capacity(n);
            for block in (w..SIMHASH_BLOCKS).step_by(block_workers) {
                entries.clear();
                entries.extend(
                    fingerprints
                        .iter()
                        .enumerate()
                        .map(|(id, &fp)| (((fp >> (16 * block)) & 0xFFFF) << id_bits) | id as u64),
                );
                union_runs(&mut entries, id_bits, &uf, |i, j| {
                    hamming(fingerprints[i], fingerprints[j]) <= max_distance
                });
            }
        });
        uf.first_occurrence_mask()
    }

    /// Exact-hash keep mask over 128-bit keys: the first occurrence of each
    /// key survives.
    pub fn exact_mask(keys: &[[u64; 2]]) -> Vec<bool> {
        let mut seen = FxHashSet::default();
        keys.iter().map(|k| seen.insert(*k)).collect()
    }

    /// Paragraph-level keep mask: a sample survives when it has no
    /// paragraphs or holds a paragraph hash no earlier sample held.
    pub fn paragraph_mask(paragraphs: &Fingerprints) -> Vec<bool> {
        let mut seen = FxHashSet::default();
        paragraphs
            .iter()
            .map(|paras| {
                let mut new = paras.is_empty(); // nothing to compare; keep
                for &p in paras {
                    new |= seen.insert(p);
                }
                new
            })
            .collect()
    }
}

/// Bits the ids `0..n` take in the low end of a `(key, id)` word. A key
/// loses those bits: a collision costs a verification, never a union.
fn id_bits(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Sort `entries` — each a key shifted above an `id_bits`-bit sample id, so
/// a plain integer sort makes each run of equal keys, ids ascending — and
/// meet every later member `j` of a run with every earlier member `i`: the
/// union-find is probed first, and a pair not yet connected is unioned when
/// `similar(i, j)`. A probe only skips pairs whose ends are already
/// connected, so the components are the transitive closure of the similar
/// candidate pairs — the same for any visiting order, worker count or
/// interleaving.
fn union_runs(
    entries: &mut [u64],
    id_bits: u32,
    uf: &ConcurrentUnionFind,
    similar: impl Fn(usize, usize) -> bool,
) {
    let id_of = |entry: u64| (entry & ((1 << id_bits) - 1)) as usize;
    entries.sort_unstable();
    for run in entries.chunk_by(|a, b| a >> id_bits == b >> id_bits) {
        for (k, &j) in run.iter().enumerate().skip(1) {
            let j = id_of(j);
            // A root read once may go stale as other workers link: then a
            // connected pair is verified again, never a separate one skipped.
            let mut root_j = uf.find(j);
            for &i in &run[..k] {
                let i = id_of(i);
                if uf.find(i) != root_j && similar(i, j) {
                    uf.union(i, j);
                    root_j = uf.find(j);
                }
            }
        }
    }
}
