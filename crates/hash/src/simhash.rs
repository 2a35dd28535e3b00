//! SimHash fingerprints (Charikar's similarity estimation, paper ref \[14\]).
//!
//! Each feature (word or character n-gram) votes its hash bits, weighted by
//! frequency; the sign of each accumulated bit position forms a 64-bit
//! fingerprint whose Hamming distance approximates the cosine distance
//! between the feature-frequency vectors. Data-Juicer uses this as the
//! "vector-based" deduplication method alongside hash-based MinHash.
//!
//! Clustering (`dj-ops`' `ParallelDedup::simhash_mask`) cuts every
//! fingerprint into [`SIMHASH_BLOCKS`] 16-bit blocks, sorts `(block, id)`
//! per block and checks the [`hamming`] distance of the members of each
//! run of equal blocks.

use crate::fxhash::hash64;

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

/// Number of 16-bit blocks a fingerprint is cut into for candidate
/// generation: two fingerprints are compared only when they agree exactly
/// on some block. Every pair within 3 bits does (pigeonhole); a pair
/// farther apart that agrees on no block is never compared — the
/// documented trade-off of a budget above 3.
pub const SIMHASH_BLOCKS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;

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
}
