//! MinHash signatures and LSH banding for near-duplicate detection.
//!
//! Implements the min-wise independent permutation scheme of Broder et al.
//! (paper reference \[8\]) used by Data-Juicer's `document_minhash_deduplicator`:
//! a document is shingled into word n-grams, each shingle hashed under `k`
//! independent hash functions, and the per-function minima form the
//! signature. `sim(A, B) = |matching components| / k` is an unbiased
//! estimator of the Jaccard similarity of the shingle sets.
//!
//! For sub-quadratic candidate generation, signatures are cut into `b` bands
//! of `r` rows (`k = b*r`); documents sharing any banded sub-signature become
//! candidates (classic LSH banding).

use crate::fxhash::{hash64_seeded, FxHashMap};

/// MinHash signature generator with a fixed family of hash functions.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
    shingle_size: usize,
}

impl MinHasher {
    /// `num_hashes` independent permutations over word shingles of
    /// `shingle_size` tokens. `shingle_size = 1` hashes individual words.
    pub fn new(num_hashes: usize, shingle_size: usize) -> MinHasher {
        assert!(num_hashes > 0, "need at least one hash function");
        assert!(shingle_size > 0, "shingle size must be positive");
        // Derive a deterministic seed family via splitmix64.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let seeds = (0..num_hashes)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect();
        MinHasher {
            seeds,
            shingle_size,
        }
    }

    pub fn num_hashes(&self) -> usize {
        self.seeds.len()
    }

    /// Signature of a token sequence. Empty inputs yield an all-`u64::MAX`
    /// signature (matching only other empty documents).
    ///
    /// Takes any re-iterable token stream (a slice of strings, a borrowed
    /// word view), so callers never have to copy tokens to fingerprint them.
    pub fn signature<I>(&self, tokens: I) -> Vec<u64>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
        I::IntoIter: Clone,
    {
        let mut sig = vec![u64::MAX; self.seeds.len()];
        let mut absorb = |shingle: &[u8]| {
            // One base hash per shingle, remixed per seed: much cheaper than
            // rehashing the string k times and statistically equivalent for
            // dedup purposes.
            let base = hash64_seeded(shingle, 0);
            for (slot, &seed) in sig.iter_mut().zip(&self.seeds) {
                let h = remix(base, seed);
                if h < *slot {
                    *slot = h;
                }
            }
        };
        // The shingle is the window's tokens joined by an unambiguous
        // separator; sliding drops the oldest token from the front and
        // appends the next one, so `trail` runs one window behind `lead`.
        const SEP: u8 = 1;
        let lead = tokens.into_iter();
        let mut trail = lead.clone();
        let mut shingle: Vec<u8> = Vec::new();
        let mut held = 0;
        for token in lead {
            if held == self.shingle_size {
                // The oldest token and, unless it was alone, its separator.
                let oldest = trail.next().map_or(0, |t| t.as_ref().len());
                shingle.drain(..(oldest + 1).min(shingle.len()));
                held -= 1;
            }
            if held > 0 {
                shingle.push(SEP);
            }
            shingle.extend_from_slice(token.as_ref().as_bytes());
            held += 1;
            if held == self.shingle_size {
                absorb(&shingle);
            }
        }
        // Fewer tokens than the shingle size: the whole document is one
        // shingle.
        if held > 0 && held < self.shingle_size {
            absorb(&shingle);
        }
        sig
    }

    /// Estimated Jaccard similarity of two signatures.
    pub fn similarity(a: &[u64], b: &[u64]) -> f64 {
        assert_eq!(a.len(), b.len(), "signature lengths differ");
        if a.is_empty() {
            return 0.0;
        }
        let matches = a.iter().zip(b).filter(|(x, y)| x == y).count();
        matches as f64 / a.len() as f64
    }
}

#[inline]
fn remix(base: u64, seed: u64) -> u64 {
    let mut z = base ^ seed;
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// LSH banding index over MinHash signatures.
pub struct LshIndex {
    bands: usize,
    rows: usize,
    /// band index → banded-hash → doc ids
    tables: Vec<FxHashMap<u64, Vec<usize>>>,
}

impl LshIndex {
    /// `bands * rows` must equal the signature length used at insert time.
    pub fn new(bands: usize, rows: usize) -> LshIndex {
        assert!(bands > 0 && rows > 0);
        LshIndex {
            bands,
            rows,
            tables: (0..bands).map(|_| FxHashMap::default()).collect(),
        }
    }

    /// The banded sub-signature key used for bucketing: shared by the
    /// sequential index and the band-sharded parallel exchange so both
    /// produce identical candidate sets.
    pub fn band_key(band: usize, rows: usize, signature: &[u64]) -> u64 {
        band_key_for(band, rows, signature)
    }

    /// Insert a signature under `id`, returning candidate duplicate ids
    /// (every previously-inserted id sharing at least one band).
    pub fn insert(&mut self, id: usize, signature: &[u64]) -> Vec<usize> {
        assert_eq!(
            signature.len(),
            self.bands * self.rows,
            "signature length must be bands*rows"
        );
        let mut candidates = Vec::new();
        for (band, table) in self.tables.iter_mut().enumerate() {
            let key = band_key_for(band, self.rows, signature);
            let bucket = table.entry(key).or_default();
            candidates.extend_from_slice(bucket);
            bucket.push(id);
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }

    /// Probability that a pair with true Jaccard `s` becomes a candidate:
    /// `1 - (1 - s^r)^b`. Exposed so callers can pick (b, r) for a threshold.
    pub fn candidate_probability(&self, s: f64) -> f64 {
        1.0 - (1.0 - s.powi(self.rows as i32)).powi(self.bands as i32)
    }
}

fn band_key_for(band: usize, rows: usize, signature: &[u64]) -> u64 {
    let chunk = &signature[band * rows..(band + 1) * rows];
    let mut key = band as u64;
    for &v in chunk {
        key = remix(key ^ v, 0x6a09_e667_f3bc_c909);
    }
    key
}

/// One band's share of the LSH exchange: every candidate pair `(i, j)`
/// with `i < j` whose signatures collide in `band`, sorted ascending.
///
/// Equivalent to what the sequential [`LshIndex`] surfaces for this band —
/// each worker of the parallel dedup runs a disjoint subset of bands and
/// the union of all bands' pairs (deduplicated) is exactly the sequential
/// candidate set.
pub fn lsh_band_pairs(band: usize, rows: usize, signatures: &[Vec<u64>]) -> Vec<(u32, u32)> {
    assert!(
        signatures.len() <= u32::MAX as usize,
        "id count exceeds u32 range"
    );
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for (i, sig) in signatures.iter().enumerate() {
        assert_eq!(
            sig.len() % rows,
            0,
            "signature length must be a multiple of rows"
        );
        buckets
            .entry(band_key_for(band, rows, sig))
            .or_default()
            .push(i as u32);
    }
    let mut pairs = Vec::new();
    for members in buckets.values() {
        // Members are in ascending id order (insertion order above).
        for (k, &j) in members.iter().enumerate() {
            for &i in &members[..k] {
                pairs.push((i, j));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<&str> {
        s.split_whitespace().collect()
    }

    #[test]
    fn identical_docs_have_identical_signatures() {
        let mh = MinHasher::new(64, 3);
        let a = mh.signature(&words("the quick brown fox jumps over the lazy dog"));
        let b = mh.signature(&words("the quick brown fox jumps over the lazy dog"));
        assert_eq!(a, b);
        assert_eq!(MinHasher::similarity(&a, &b), 1.0);
    }

    #[test]
    fn disjoint_docs_have_near_zero_similarity() {
        let mh = MinHasher::new(128, 1);
        let a = mh.signature(&words("alpha beta gamma delta epsilon zeta"));
        let b = mh.signature(&words("one two three four five six"));
        assert!(MinHasher::similarity(&a, &b) < 0.1);
    }

    #[test]
    fn similarity_tracks_jaccard() {
        // 15 shared words of 20 → Jaccard = 15/25 = 0.6 with unigram shingles.
        let mh = MinHasher::new(256, 1);
        let shared: Vec<String> = (0..15).map(|i| format!("shared{i}")).collect();
        let mut a: Vec<String> = shared.clone();
        a.extend((0..5).map(|i| format!("onlya{i}")));
        let mut b: Vec<String> = shared;
        b.extend((0..5).map(|i| format!("onlyb{i}")));
        let sim = MinHasher::similarity(&mh.signature(&a), &mh.signature(&b));
        assert!((sim - 0.6).abs() < 0.12, "sim={sim}, want ≈0.6");
    }

    #[test]
    fn empty_docs_match_only_each_other() {
        let mh = MinHasher::new(16, 2);
        let empty: Vec<&str> = vec![];
        let e1 = mh.signature(&empty);
        let e2 = mh.signature(&empty);
        let full = mh.signature(&words("some text"));
        assert_eq!(MinHasher::similarity(&e1, &e2), 1.0);
        assert!(MinHasher::similarity(&e1, &full) < 1.0);
    }

    #[test]
    fn short_doc_shrinks_shingle_window() {
        let mh = MinHasher::new(16, 5);
        let sig = mh.signature(&["only", "two"]);
        assert!(sig.iter().any(|&v| v != u64::MAX));
    }

    #[test]
    fn lsh_flags_near_duplicates() {
        let mh = MinHasher::new(64, 2);
        let mut idx = LshIndex::new(16, 4);
        let base = "data juicer is a one stop data processing system for large language models";
        let near = "data juicer is a one stop data processing system for large language model";
        let far = "completely different sentence about cooking pasta at home tonight";
        assert!(idx.insert(0, &mh.signature(&words(base))).is_empty());
        let cand = idx.insert(1, &mh.signature(&words(near)));
        assert!(cand.contains(&0), "near-duplicate should be a candidate");
        let cand2 = idx.insert(2, &mh.signature(&words(far)));
        assert!(!cand2.contains(&0) && !cand2.contains(&1));
    }

    #[test]
    fn candidate_probability_is_monotone_s_curve() {
        let idx = LshIndex::new(16, 4);
        let p_low = idx.candidate_probability(0.2);
        let p_mid = idx.candidate_probability(0.6);
        let p_high = idx.candidate_probability(0.95);
        assert!(p_low < p_mid && p_mid < p_high);
        assert!(p_high > 0.99);
        assert!(p_low < 0.05);
    }

    #[test]
    #[should_panic(expected = "signature length")]
    fn lsh_rejects_wrong_signature_length() {
        let mut idx = LshIndex::new(4, 4);
        idx.insert(0, &[1, 2, 3]);
    }

    #[test]
    fn band_pairs_match_sequential_candidates() {
        let (bands, rows) = (8usize, 2usize);
        let mh = MinHasher::new(bands * rows, 2);
        let docs = [
            "data juicer is a one stop data processing system",
            "data juicer is a one stop data processing system",
            "data juicer is a one stop data processing systems",
            "completely different sentence about cooking pasta",
            "another unrelated line mentioning tomato gardens",
        ];
        let sigs: Vec<Vec<u64>> = docs.iter().map(|d| mh.signature(&words(d))).collect();
        // Sequential candidate set.
        let mut idx = LshIndex::new(bands, rows);
        let mut sequential: Vec<(u32, u32)> = Vec::new();
        for (i, sig) in sigs.iter().enumerate() {
            for cand in idx.insert(i, sig) {
                sequential.push((cand as u32, i as u32));
            }
        }
        sequential.sort_unstable();
        // Banded candidate set: union of per-band pairs, deduplicated.
        let mut banded: Vec<(u32, u32)> = (0..bands)
            .flat_map(|b| lsh_band_pairs(b, rows, &sigs))
            .collect();
        banded.sort_unstable();
        banded.dedup();
        assert_eq!(banded, sequential);
        assert!(banded.contains(&(0, 1)), "exact dup must be a candidate");
    }
}
