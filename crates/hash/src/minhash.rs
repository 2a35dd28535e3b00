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
//!
//! Nearly all of a signature's cost is the lane loop — `k` remixes and
//! minima per shingle ([`absorb`]). It is written once and compiled once
//! per instruction set ([`Lanes`]): on x86-64 also under AVX2 and under
//! AVX-512, where the compiler has 64-bit vector multiplies and unsigned
//! minima to vectorize it with. [`MinHasher::new`] picks by what the CPU
//! reports; the signatures are the same whichever runs.

use crate::fxhash::{hash64_seeded, FxHashMap};

/// MinHash signature generator with a fixed family of hash functions.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
    shingle_size: usize,
    lanes: Lanes,
}

impl MinHasher {
    /// `num_hashes` independent permutations over word shingles of
    /// `shingle_size` tokens. `shingle_size = 1` hashes individual words.
    /// The lane loop runs in the widest instantiation the CPU has.
    pub fn new(num_hashes: usize, shingle_size: usize) -> MinHasher {
        MinHasher::with_lanes(num_hashes, shingle_size, Lanes::widest())
    }

    /// [`new`](MinHasher::new) with the lane loop pinned to one
    /// instantiation — for the tests and benches that compare them; every
    /// instantiation computes the same signatures.
    pub fn with_lanes(num_hashes: usize, shingle_size: usize, lanes: Lanes) -> MinHasher {
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
            lanes,
        }
    }

    pub fn num_hashes(&self) -> usize {
        self.seeds.len()
    }

    /// Signature of a token sequence. Empty inputs yield an all-`u64::MAX`
    /// signature (matching only other empty documents).
    ///
    /// Allocates its result and working memory; a hash pass lends both to
    /// [`signature_into`](MinHasher::signature_into) instead.
    pub fn signature<I>(&self, tokens: I) -> Vec<u64>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut sig = vec![0; self.seeds.len()];
        self.signature_into(tokens, &mut Vec::new(), &mut Vec::new(), &mut sig);
        sig
    }

    /// [`signature`](MinHasher::signature) written over `sig` (one slot per
    /// hash function), with `joined` and `bases` as working memory whose
    /// contents are unspecified before and after: once they have grown to
    /// the largest document, a signature allocates nothing.
    pub fn signature_into<I>(
        &self,
        tokens: I,
        joined: &mut Vec<u8>,
        bases: &mut Vec<u64>,
        sig: &mut [u64],
    ) where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        assert_eq!(sig.len(), self.seeds.len(), "one slot per hash function");
        self.shingle_bases(tokens, joined, bases);
        sig.fill(u64::MAX);
        self.lanes.absorb(bases, &self.seeds, sig);
    }

    /// Replace `bases` with one base hash per shingle of `tokens`. A
    /// shingle is a window of `shingle_size` tokens joined by an
    /// unambiguous separator; the document is joined once into `joined`, so
    /// every window is a slice of it.
    fn shingle_bases<I>(&self, tokens: I, joined: &mut Vec<u8>, bases: &mut Vec<u64>)
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        const SEP: u8 = 1;
        joined.clear();
        bases.clear();
        // First the offset each token starts at (a separator trails every
        // token, the last included), closed by where the next would start.
        let tokens = tokens.into_iter();
        bases.reserve(tokens.size_hint().0 + 1);
        for token in tokens {
            bases.push(joined.len() as u64);
            joined.extend_from_slice(token.as_ref().as_bytes());
            joined.push(SEP);
        }
        let tokens = bases.len();
        if tokens == 0 {
            return;
        }
        bases.push(joined.len() as u64);
        // Fewer tokens than the shingle size: the whole document is one
        // shingle.
        let window = self.shingle_size.min(tokens);
        let shingles = tokens - window + 1;
        for i in 0..shingles {
            // Shingle `i` runs from token `i` up to the separator trailing
            // token `i + window - 1`. Its hash takes the place of start
            // offset `i`, which no later shingle reads.
            let (start, end) = (bases[i] as usize, bases[i + window] as usize - 1);
            bases[i] = hash64_seeded(&joined[start..end], 0);
        }
        bases.truncate(shingles);
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

#[inline(always)]
fn remix(base: u64, seed: u64) -> u64 {
    let mut z = base ^ seed;
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// The lane loop: every shingle's base hash, remixed per seed (much cheaper
/// than rehashing the shingle `k` times and statistically equivalent for
/// dedup purposes), lowers the minimum of each lane it undercuts. The one
/// body every [`Lanes`] instantiation compiles.
#[inline(always)]
fn absorb(bases: &[u64], seeds: &[u64], sig: &mut [u64]) {
    for &base in bases {
        for (slot, &seed) in sig.iter_mut().zip(seeds) {
            *slot = (*slot).min(remix(base, seed));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn absorb_avx2(bases: &[u64], seeds: &[u64], sig: &mut [u64]) {
    absorb(bases, seeds, sig);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn absorb_avx512(bases: &[u64], seeds: &[u64], sig: &mut [u64]) {
    absorb(bases, seeds, sig);
}

/// One compiled instantiation of the lane loop: the same Rust body built
/// for one instruction set, so the compiler vectorizes the 64-bit
/// multiplies and minima as far as that set goes. All of them compute the
/// same signatures.
///
/// A value exists only for an instruction set the running CPU has — the
/// constructors are [`Lanes::available`] and [`Lanes::widest`] — which is
/// what makes running it safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Lanes {
    /// Every instantiation this CPU can run, narrowest (the portable one)
    /// first.
    pub fn available() -> Vec<Lanes> {
        #[allow(unused_mut)]
        let mut all = vec![Lanes(Isa::Scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(Lanes(Isa::Avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                all.push(Lanes(Isa::Avx512));
            }
        }
        all
    }

    /// The widest instantiation this CPU can run.
    pub fn widest() -> Lanes {
        Lanes::available().pop().unwrap_or(Lanes(Isa::Scalar))
    }

    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }

    fn absorb(self, bases: &[u64], seeds: &[u64], sig: &mut [u64]) {
        match self.0 {
            Isa::Scalar => absorb(bases, seeds, sig),
            // SAFETY: a `Lanes` of this variant is only ever built by
            // `available`, after the CPU reported the features the function
            // is compiled for.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { absorb_avx2(bases, seeds, sig) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { absorb_avx512(bases, seeds, sig) },
        }
    }
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
/// `words` holds the signatures back to back, `width` words each.
///
/// Equivalent to what the sequential [`LshIndex`] surfaces for this band —
/// each worker of the parallel dedup runs a disjoint subset of bands and
/// the union of all bands' pairs (deduplicated) is exactly the sequential
/// candidate set.
pub fn lsh_band_pairs(band: usize, rows: usize, words: &[u64], width: usize) -> Vec<(u32, u32)> {
    assert!(
        width > 0 && width.is_multiple_of(rows) && words.len().is_multiple_of(width),
        "signature width must be a multiple of rows, the words of the width"
    );
    assert!(
        words.len() / width <= u32::MAX as usize,
        "id count exceeds u32 range"
    );
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for (i, sig) in words.chunks_exact(width).enumerate() {
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
        let sigs: Vec<u64> = docs.iter().flat_map(|d| mh.signature(words(d))).collect();
        // Sequential candidate set.
        let mut idx = LshIndex::new(bands, rows);
        let mut sequential: Vec<(u32, u32)> = Vec::new();
        for (i, sig) in sigs.chunks_exact(bands * rows).enumerate() {
            for cand in idx.insert(i, sig) {
                sequential.push((cand as u32, i as u32));
            }
        }
        sequential.sort_unstable();
        // Banded candidate set: union of per-band pairs, deduplicated.
        let mut banded: Vec<(u32, u32)> = (0..bands)
            .flat_map(|b| lsh_band_pairs(b, rows, &sigs, bands * rows))
            .collect();
        banded.sort_unstable();
        banded.dedup();
        assert_eq!(banded, sequential);
        assert!(banded.contains(&(0, 1)), "exact dup must be a candidate");
    }
}
