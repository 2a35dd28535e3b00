//! The worker-parallel clustering behind every
//! [`Deduplicator::cluster`](dj_core::Deduplicator::cluster).
//!
//! Each strategy partitions its fingerprint space so workers can work
//! independently, then merges what they found into one deterministic keep
//! mask that retains the minimum index of each duplicate component:
//!
//! * **MinHash**, by LSH band, one path for every worker count: each
//!   worker sorts `(band_key, id)` for its bands and verifies the members
//!   of every run of equal keys straight into a lock-free
//!   [`ConcurrentUnionFind`], probing it before each signature comparison
//!   ([`ParallelDedup::minhash_mask`]).
//! * **SimHash**, by 16-bit rotation block: per-worker [`UnionFind`]
//!   partials of verified pairs, folded into the shared structure.
//! * **Exact and paragraph hashes**, by contiguous index range: partial
//!   first-occurrence elections merged in range order.
//!
//! SimHash, exact and paragraph clustering keep a sequential path for
//! `workers == 1`. Workers are a pure performance knob: the mask is the
//! same for every worker count, and the MinHash mask is held to an
//! all-pairs oracle (`tests/dedup_parallel.rs`).

use dj_core::{Fingerprints, WorkerPool};
use dj_hash::{
    band_key, simhash_block_pairs, ConcurrentUnionFind, FxHashMap, FxHashSet, MinHasher,
    SimHashIndex, UnionFind, SIMHASH_BLOCKS,
};

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

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// MinHash-LSH keep mask. `words` holds the signatures back to back,
    /// `bands * rows` words each.
    ///
    /// One pool section: worker `w` owns bands `w, w + workers, …`. It
    /// walks the signatures once, in sample order, pushing `(band_key, id)`
    /// into one flat buffer per owned band, then sorts each buffer and
    /// scans its runs of equal keys. Every later member `j` of a run meets
    /// every earlier member `i`: the union-find is probed first (a find is
    /// far cheaper than comparing two `bands × rows` signatures), and a
    /// pair not yet connected is unioned when its similarity reaches the
    /// threshold. A probe only skips pairs whose ends are already
    /// connected, so the components are the transitive closure of the
    /// verified candidate pairs — the same for any visiting order, worker
    /// count or interleaving.
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
        // A key and an id share one word, the id in the low `id_bits`, so a
        // plain integer sort makes each run of equal keys, ids ascending.
        // The key loses those bits: a collision costs a comparison, never a
        // union.
        let id_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        let id_of = |entry: u64| (entry & ((1 << id_bits) - 1)) as usize;
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
                band_keys.sort_unstable();
                for run in band_keys.chunk_by(|a, b| a >> id_bits == b >> id_bits) {
                    for (k, &j) in run.iter().enumerate().skip(1) {
                        let j = id_of(j);
                        // A root read once may go stale as other workers
                        // link: then a connected pair is compared again,
                        // never a separate one skipped.
                        let mut root_j = uf.find(j);
                        for &i in &run[..k] {
                            let i = id_of(i);
                            if uf.find(i) != root_j
                                && MinHasher::similarity(signature(i), signature(j))
                                    >= jaccard_threshold
                            {
                                uf.union(i, j);
                                root_j = uf.find(j);
                            }
                        }
                    }
                }
            }
        });
        uf.first_occurrence_mask()
    }

    /// SimHash keep mask: block-sharded candidate generation with inline
    /// Hamming verification; per-block [`UnionFind`] partials merged into
    /// the shared concurrent structure.
    pub fn simhash_mask(&self, fingerprints: &[u64], max_distance: u32) -> Vec<bool> {
        let n = fingerprints.len();
        if self.workers == 1 || n < 2 {
            let mut index = SimHashIndex::new(max_distance);
            let mut uf = UnionFind::new(n);
            for (i, &fp) in fingerprints.iter().enumerate() {
                for cand in index.insert(i, fp) {
                    uf.union(i, cand);
                }
            }
            return uf.first_occurrence_mask();
        }

        // Round-robin blocks over at most `workers` threads (the trait
        // contract promises *up to* num_workers threads, never more).
        let block_workers = self.workers.min(SIMHASH_BLOCKS);
        let uf = ConcurrentUnionFind::new(n);
        WorkerPool::global().run_indexed(block_workers, block_workers, |w| {
            // Verification (a popcount) is cheap enough to do inline; the
            // partial clusters this worker's blocks found merge into the
            // shared structure in one pass.
            let mut partial = UnionFind::new(n);
            let mut block = w;
            while block < SIMHASH_BLOCKS {
                for (a, b) in simhash_block_pairs(block, fingerprints, max_distance) {
                    partial.union(a as usize, b as usize);
                }
                block += block_workers;
            }
            uf.merge(&partial);
        });
        uf.first_occurrence_mask()
    }

    /// Exact-hash keep mask over 128-bit keys: index-range sharding —
    /// each worker elects first occurrences within its contiguous key
    /// range (O(n) total work), partial elections merge by range order
    /// (earlier ranges hold smaller indices, so first-merged wins), and a
    /// parallel pass checks each key against its elected winner.
    pub fn exact_mask(&self, keys: &[[u64; 2]]) -> Vec<bool> {
        let n = keys.len();
        if self.workers == 1 || n < 2 {
            let mut seen = FxHashSet::default();
            return keys.iter().map(|k| seen.insert(*k)).collect();
        }
        assert!(n <= u32::MAX as usize, "sample count exceeds u32 range");
        let parts = self.workers.min(n);
        let chunk = n.div_ceil(parts);
        let slices: Vec<&[[u64; 2]]> = keys.chunks(chunk).collect();
        let maps: Vec<FxHashMap<[u64; 2], u32>> =
            WorkerPool::global().run_indexed(parts, slices.len(), |c| {
                let base = (c * chunk) as u32;
                let mut first: FxHashMap<[u64; 2], u32> = FxHashMap::default();
                for (off, k) in slices[c].iter().enumerate() {
                    first.entry(*k).or_insert(base + off as u32);
                }
                first
            });
        // Merge partial elections in ascending range order: every index in
        // range c is smaller than any index in range c+1, so the first
        // insertion per key is the global minimum.
        let mut maps = maps.into_iter();
        let mut winner: FxHashMap<[u64; 2], u32> = maps.next().expect("parts >= 1");
        for m in maps {
            for (k, i) in m {
                winner.entry(k).or_insert(i);
            }
        }
        let winner_ref = &winner;
        let mask_chunks: Vec<Vec<bool>> =
            WorkerPool::global().run_indexed(parts, slices.len(), |c| {
                let base = (c * chunk) as u32;
                slices[c]
                    .iter()
                    .enumerate()
                    .map(|(off, k)| winner_ref[k] == base + off as u32)
                    .collect::<Vec<bool>>()
            });
        mask_chunks.into_iter().flatten().collect()
    }

    /// Paragraph-level keep mask: a sample survives when any of its
    /// paragraph hashes first occurs in it. Index-range sharding elects
    /// each paragraph's owning sample (O(total paragraphs) work), then a
    /// parallel pass over sample ranges builds the mask.
    pub fn paragraph_mask(&self, paragraphs: &Fingerprints) -> Vec<bool> {
        let n = paragraphs.len();
        if self.workers == 1 || n < 2 {
            let mut seen = FxHashSet::default();
            let mut mask = Vec::with_capacity(n);
            for paras in paragraphs.iter() {
                if paras.is_empty() {
                    mask.push(true); // nothing to compare; keep
                    continue;
                }
                let mut any_new = false;
                for &p in paras {
                    if seen.insert(p) {
                        any_new = true;
                    }
                }
                mask.push(any_new);
            }
            return mask;
        }

        assert!(n <= u32::MAX as usize, "sample count exceeds u32 range");
        let parts = self.workers.min(n);
        let chunk = n.div_ceil(parts);
        let ranges: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(n))
            .collect();
        // Pass 1: per-sample-range first-occurrence election; each worker
        // only scans its own contiguous range.
        let maps: Vec<FxHashMap<u64, u32>> =
            WorkerPool::global().run_indexed(parts, ranges.len(), |c| {
                let mut first: FxHashMap<u64, u32> = FxHashMap::default();
                for i in ranges[c].clone() {
                    for &p in paragraphs.get(i) {
                        first.entry(p).or_insert(i as u32);
                    }
                }
                first
            });
        // Merge in ascending range order: first insertion per key wins,
        // which is the global minimum sample index.
        let mut maps = maps.into_iter();
        let mut owner: FxHashMap<u64, u32> = maps.next().expect("parts >= 1");
        for m in maps {
            for (k, i) in m {
                owner.entry(k).or_insert(i);
            }
        }

        // Pass 2: parallel mask over the same contiguous sample ranges.
        let owner = &owner;
        let chunks: Vec<Vec<bool>> = WorkerPool::global().run_indexed(parts, ranges.len(), |c| {
            ranges[c]
                .clone()
                .map(|i| {
                    let paras = paragraphs.get(i);
                    paras.is_empty() || paras.iter().any(|p| owner.get(p) == Some(&(i as u32)))
                })
                .collect::<Vec<bool>>()
        });
        chunks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sigs_for(texts: &[&str], bands: usize, rows: usize) -> Vec<u64> {
        let mh = MinHasher::new(bands * rows, 2);
        texts
            .iter()
            .flat_map(|t| mh.signature(t.split_whitespace()))
            .collect()
    }

    #[test]
    fn minhash_mask_identical_across_worker_counts() {
        let texts = [
            "data juicer processes massive corpora for language models",
            "data juicer processes massive corpora for language models",
            "data juicer processes massive corpora for language model",
            "a completely different sentence about cooking pasta dinner",
            "yet another unrelated line mentioning tomato gardens today",
            "data juicer processes massive corpora for language models",
        ];
        let sigs = sigs_for(&texts, 8, 2);
        let reference = ParallelDedup::new(1).minhash_mask(&sigs, 8, 2, 0.7);
        assert!(reference.iter().filter(|&&k| !k).count() >= 2);
        for w in [2, 3, 4, 8] {
            let mask = ParallelDedup::new(w).minhash_mask(&sigs, 8, 2, 0.7);
            assert_eq!(mask, reference, "workers={w}");
        }
    }

    #[test]
    fn simhash_mask_identical_across_worker_counts() {
        let base = 0xABCD_EF01_2345_6789u64;
        let fps = vec![
            base,
            base ^ 0b11,
            base ^ 0x1111_0000_1111_0000,
            base,
            42,
            43,
        ];
        let reference = ParallelDedup::new(1).simhash_mask(&fps, 3);
        for w in [2, 4, 7] {
            assert_eq!(ParallelDedup::new(w).simhash_mask(&fps, 3), reference);
        }
        // 1 ≡ 0 (distance 2), 3 ≡ 0 (exact), 5 ≡ 4 (distance 1, shared
        // zero blocks); 2 is distance 8 from 0 and survives.
        assert_eq!(reference, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn exact_mask_identical_across_worker_counts() {
        let keys = [[1, 1], [2, 2], [1, 1], [3, 3], [2, 2], [1, 1], [4, 4]];
        let reference = ParallelDedup::new(1).exact_mask(&keys);
        assert_eq!(reference, vec![true, true, false, true, false, false, true]);
        for w in [2, 3, 5] {
            assert_eq!(ParallelDedup::new(w).exact_mask(&keys), reference);
        }
    }

    #[test]
    fn paragraph_mask_identical_across_worker_counts() {
        let mut paras = Fingerprints::new();
        for p in [&[10, 20][..], &[20, 30], &[10, 30], &[], &[10, 10], &[40]] {
            paras.push(p).unwrap();
        }
        let reference = ParallelDedup::new(1).paragraph_mask(&paras);
        assert_eq!(reference, vec![true, true, false, true, false, true]);
        for w in [2, 3, 4] {
            assert_eq!(ParallelDedup::new(w).paragraph_mask(&paras), reference);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        for w in [1, 4] {
            let pd = ParallelDedup::new(w);
            assert!(pd.exact_mask(&[]).is_empty());
            assert_eq!(pd.exact_mask(&[[5, 5]]), vec![true]);
            assert!(pd.minhash_mask(&[], 4, 2, 0.5).is_empty());
            assert!(pd.simhash_mask(&[], 3).is_empty());
            let mut blank = Fingerprints::new();
            blank.push(&[]).unwrap();
            assert_eq!(pd.paragraph_mask(&blank), vec![true]);
        }
    }
}
