//! SimHash fingerprints (Charikar's similarity estimation, paper ref \[14\]).
//!
//! Each feature (word or character n-gram) votes its hash bits, weighted by
//! frequency; the sign of each accumulated bit position forms a 64-bit
//! fingerprint whose Hamming distance approximates the cosine distance
//! between the feature-frequency vectors. Data-Juicer uses this as the
//! "vector-based" deduplication method alongside hash-based MinHash.

use crate::fxhash::{hash64, FxHashMap};

/// Compute a 64-bit SimHash over weighted features.
pub fn simhash_weighted<'a, I>(features: I) -> u64
where
    I: IntoIterator<Item = (&'a str, f64)>,
{
    let mut acc = [0f64; 64];
    let mut any = false;
    for (feat, w) in features {
        any = true;
        let h = hash64(feat.as_bytes());
        for (bit, slot) in acc.iter_mut().enumerate() {
            if (h >> bit) & 1 == 1 {
                *slot += w;
            } else {
                *slot -= w;
            }
        }
    }
    if !any {
        return 0;
    }
    let mut out = 0u64;
    for (bit, &v) in acc.iter().enumerate() {
        if v > 0.0 {
            out |= 1 << bit;
        }
    }
    out
}

/// SimHash over a token stream using unit feature weights with frequency
/// accumulation. Every occurrence votes with weight one — the sums a
/// per-token count would cast at once, exactly (the votes are small
/// integers) — so no frequency table is built and nothing is allocated.
pub fn simhash_tokens<'a, I>(tokens: I) -> u64
where
    I: IntoIterator<Item = &'a str>,
{
    simhash_weighted(tokens.into_iter().map(|t| (t, 1.0)))
}

/// Number of differing bits between two fingerprints.
#[inline]
pub fn hamming(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// Number of 16-bit rotation blocks the [`SimHashIndex`] (and the
/// block-sharded parallel exchange) partitions fingerprints into.
pub const SIMHASH_BLOCKS: usize = 4;

/// One rotation block's share of the SimHash exchange: every pair
/// `(i, j)` with `i < j` that agrees exactly on 16-bit `block` AND lies
/// within the Hamming budget, sorted ascending.
///
/// The union over all [`SIMHASH_BLOCKS`] blocks (deduplicated) is exactly
/// the duplicate-pair set the sequential [`SimHashIndex`] surfaces, so
/// per-block workers can cluster independently and merge.
pub fn simhash_block_pairs(block: usize, fps: &[u64], max_distance: u32) -> Vec<(u32, u32)> {
    assert!(block < SIMHASH_BLOCKS, "block out of range");
    assert!(fps.len() <= u32::MAX as usize, "id count exceeds u32 range");
    let mut buckets: FxHashMap<u16, Vec<u32>> = FxHashMap::default();
    for (i, &fp) in fps.iter().enumerate() {
        let key = ((fp >> (16 * block)) & 0xFFFF) as u16;
        buckets.entry(key).or_default().push(i as u32);
    }
    let mut pairs = Vec::new();
    for members in buckets.values() {
        for (k, &j) in members.iter().enumerate() {
            for &i in &members[..k] {
                if hamming(fps[i as usize], fps[j as usize]) <= max_distance {
                    pairs.push((i, j));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Index that finds previously-inserted fingerprints within a Hamming
/// distance budget, using the standard 4-block permutation trick: any pair
/// with distance ≤ 3 must agree exactly on at least one of 4 16-bit blocks.
pub struct SimHashIndex {
    max_distance: u32,
    blocks: [FxHashMap<u16, Vec<usize>>; 4],
    fingerprints: Vec<(usize, u64)>,
}

impl SimHashIndex {
    /// `max_distance` ≤ 3 keeps the block-agreement guarantee exact; larger
    /// budgets still work but may miss candidates (documented trade-off).
    pub fn new(max_distance: u32) -> SimHashIndex {
        SimHashIndex {
            max_distance,
            blocks: Default::default(),
            fingerprints: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Insert `fp` under `id`, returning ids of earlier fingerprints within
    /// the Hamming budget.
    pub fn insert(&mut self, id: usize, fp: u64) -> Vec<usize> {
        let mut candidates = Vec::new();
        for (b, table) in self.blocks.iter_mut().enumerate() {
            let key = ((fp >> (16 * b)) & 0xFFFF) as u16;
            let bucket = table.entry(key).or_default();
            candidates.extend_from_slice(bucket);
            bucket.push(self.fingerprints.len());
        }
        candidates.sort_unstable();
        candidates.dedup();
        let out = candidates
            .into_iter()
            .filter_map(|slot| {
                let (cid, cfp) = self.fingerprints[slot];
                (hamming(cfp, fp) <= self.max_distance).then_some(cid)
            })
            .collect();
        self.fingerprints.push((id, fp));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> impl Iterator<Item = &str> {
        s.split_whitespace()
    }

    #[test]
    fn identical_text_identical_fingerprint() {
        let a = simhash_tokens(toks("large language models eat data"));
        let b = simhash_tokens(toks("large language models eat data"));
        assert_eq!(a, b);
        assert_eq!(hamming(a, b), 0);
    }

    #[test]
    fn near_duplicates_are_close_far_texts_are_far() {
        let base = "the data juicer system processes massive heterogeneous text corpora \
                    for large language model pretraining with composable operators";
        let near = "the data juicer system processes massive heterogeneous text corpora \
                    for large language model pretraining with composable operator";
        let far = "meanwhile in an unrelated document we discuss gardening techniques \
                   tomato cultivation soil acidity and greenhouse design principles";
        let ha = simhash_tokens(toks(base));
        let hb = simhash_tokens(toks(near));
        let hc = simhash_tokens(toks(far));
        assert!(hamming(ha, hb) <= 8, "near dist={}", hamming(ha, hb));
        assert!(hamming(ha, hc) > 12, "far dist={}", hamming(ha, hc));
    }

    #[test]
    fn empty_input_hashes_to_zero() {
        assert_eq!(simhash_tokens(std::iter::empty()), 0);
    }

    #[test]
    fn tokens_vote_like_their_counts() {
        let text = "a b a c a b d e e e e f a";
        let mut freq: FxHashMap<&str, f64> = FxHashMap::default();
        for t in text.split(' ') {
            *freq.entry(t).or_insert(0.0) += 1.0;
        }
        assert_eq!(simhash_tokens(text.split(' ')), simhash_weighted(freq));
    }

    #[test]
    fn weighting_shifts_fingerprint_toward_heavy_feature() {
        let light = simhash_weighted(vec![("aaa", 1.0), ("bbb", 1.0)]);
        let heavy = simhash_weighted(vec![("aaa", 100.0), ("bbb", 1.0)]);
        let pure_a = simhash_weighted(vec![("aaa", 1.0)]);
        assert!(hamming(heavy, pure_a) <= hamming(light, pure_a));
        assert_eq!(hamming(heavy, pure_a), 0);
    }

    #[test]
    fn index_finds_within_budget_only() {
        let mut idx = SimHashIndex::new(3);
        let fp = 0xDEAD_BEEF_CAFE_F00Du64;
        idx.insert(0, fp);
        // distance 2: flip two bits in one block
        let near = fp ^ 0b101;
        assert_eq!(idx.insert(1, near), vec![0]);
        // distance 8 spread across blocks: must not match
        let far = fp ^ 0x0101_0101_0101_0101;
        assert!(idx.insert(2, far).is_empty());
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn exact_duplicate_found_via_index() {
        let mut idx = SimHashIndex::new(0);
        idx.insert(7, 42);
        assert_eq!(idx.insert(8, 42), vec![7]);
        assert!(idx.insert(9, 43).is_empty()); // distance 1 > budget 0
    }

    #[test]
    fn block_pairs_match_sequential_index() {
        let base = 0xDEAD_BEEF_CAFE_F00Du64;
        let fps = [base, base ^ 0b101, base ^ 0x0101_0101_0101_0101, base, 77];
        let max_distance = 3;
        // Sequential pair set.
        let mut idx = SimHashIndex::new(max_distance);
        let mut sequential: Vec<(u32, u32)> = Vec::new();
        for (i, &fp) in fps.iter().enumerate() {
            for cand in idx.insert(i, fp) {
                sequential.push((cand as u32, i as u32));
            }
        }
        sequential.sort_unstable();
        // Block-sharded pair set.
        let mut banded: Vec<(u32, u32)> = (0..SIMHASH_BLOCKS)
            .flat_map(|b| simhash_block_pairs(b, &fps, max_distance))
            .collect();
        banded.sort_unstable();
        banded.dedup();
        assert_eq!(banded, sequential);
        assert!(banded.contains(&(0, 3)), "exact dup pair present");
        assert!(banded.contains(&(0, 1)), "distance-2 pair present");
        assert!(!banded.contains(&(0, 2)), "distance-8 pair absent");
    }
}
