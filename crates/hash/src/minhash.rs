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
//! candidates (classic LSH banding). [`band_key`] folds one band into a
//! `u64`; clustering (`dj-ops`' `ParallelDedup::minhash_mask`) sorts
//! `(key, id)` per band and verifies the members of each run of equal
//! keys, so no per-band hash table is kept.
//!
//! Nearly all of a signature's cost is the lane loop — `k` remixes and
//! minima per shingle (`absorb`). It is written once and compiled once
//! per instruction set ([`Lanes`]): on x86-64 also under AVX2 and under
//! AVX-512, where the compiler has 64-bit vector multiplies and unsigned
//! minima to vectorize it with. [`MinHasher::new`] picks by what the CPU
//! reports; the signatures are the same whichever runs.

use crate::fxhash::hash64_seeded;

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

/// The key of band `band` of `signature`: its `rows` words folded into one
/// `u64`, salted with the band index. Two signatures with equal words in a
/// band get equal keys there, so sorting `(key, id)` pairs puts every
/// band-sharing group into one run; unequal words collide only as often as
/// two 64-bit hashes do, and a collision costs one extra comparison, never
/// a wrong union (every candidate pair is verified on the full signatures).
///
/// The words are already uniform hashes, so one multiply-rotate per word
/// folds them and a single `remix` finishes: clustering computes `bands`
/// keys per sample, and a full remix per word would be a third of its time.
pub fn band_key(band: usize, rows: usize, signature: &[u64]) -> u64 {
    let chunk = &signature[band * rows..(band + 1) * rows];
    let mut key = band as u64;
    for &v in chunk {
        key = (key ^ v)
            .wrapping_mul(0x517c_c1b7_2722_0a95)
            .rotate_left(26);
    }
    remix(key, 0x6a09_e667_f3bc_c909)
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
    fn band_keys_follow_the_band_words() {
        let (a, b) = ([1u64, 2, 3, 4], [1u64, 2, 9, 4]);
        assert_eq!(band_key(0, 2, &a), band_key(0, 2, &b), "band 0 words equal");
        assert_ne!(
            band_key(1, 2, &a),
            band_key(1, 2, &b),
            "band 1 words differ"
        );
        // The band index salts the key: equal words in different bands
        // never share a run.
        assert_ne!(band_key(0, 2, &[5, 6, 5, 6]), band_key(1, 2, &[5, 6, 5, 6]));
    }
}
