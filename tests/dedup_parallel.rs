//! Property tests for the parallel dedup barrier: for every deduplicator,
//! over random datasets × duplicate rates × worker counts, the parallel
//! keep mask must be identical to the one-worker mask. MinHash clustering
//! is one code path at every worker count, so it is also held to an
//! independent all-pairs oracle (`ops_reference::minhash_keep_mask`) on
//! the same corpora and on hand-built signatures. The executor's barrier
//! in every shape is held to a one-worker `keep_mask` by
//! `tests/mode_matrix.rs`.

// Only the clustering oracle is used here; the rest of the reference
// serves `ops_differential.rs`.
#[allow(dead_code)]
mod ops_reference;

use proptest::prelude::*;

use data_juicer::core::{Dataset, Deduplicator, Fingerprints, SampleContext, Value};
use data_juicer::ops::{
    DocumentDeduplicator, MinHashDeduplicator, ParagraphDeduplicator, SimHashDeduplicator,
};

/// A corpus with tunable duplication: each sample is either an exact
/// duplicate of a pool document, a near duplicate (suffix noise), or a
/// unique multi-paragraph document.
fn corpus_strategy() -> impl Strategy<Value = Vec<String>> {
    (
        proptest::collection::vec((0usize..12, 0u8..10), 0..60),
        0u8..11, // duplicate pressure: higher → more exact/near dups
    )
        .prop_map(|(picks, pressure)| {
            picks
                .into_iter()
                .enumerate()
                .map(|(i, (pool, variant))| {
                    let base = format!(
                        "document {pool} from the pool talks about data processing \
                         systems for language models in several words\n\n\
                         shared paragraph number {pool} with enough text to matter"
                    );
                    if variant < pressure {
                        if variant % 2 == 0 {
                            base // exact duplicate
                        } else {
                            format!("{base} extra token{}", variant % 3) // near dup
                        }
                    } else {
                        format!("unique document {i} about topic {i}\n\nunique para {i}")
                    }
                })
                .collect()
        })
}

fn all_dedups() -> Vec<Box<dyn Deduplicator>> {
    vec![
        Box::new(DocumentDeduplicator::new()),
        Box::new(DocumentDeduplicator::normalized()),
        Box::new(MinHashDeduplicator::new(0.7, 8, 4, 3).unwrap()),
        Box::new(SimHashDeduplicator::new(3).unwrap()),
        Box::new(ParagraphDeduplicator::new()),
    ]
}

fn hashes_for(dedup: &dyn Deduplicator, data: &Dataset) -> Vec<Value> {
    let mut ctx = SampleContext::new();
    data.iter()
        .map(|s| {
            ctx.invalidate();
            dedup.compute_hash(s, &mut ctx).unwrap()
        })
        .collect()
}

/// `cluster` of a `bands × rows` MinHash deduplicator at every worker
/// count 1..=8 against the all-pairs oracle on the same signatures (laid
/// back to back); returns the oracle's mask.
fn cluster_matches_oracle(
    signatures: &[u64],
    bands: usize,
    rows: usize,
    threshold: f64,
) -> Vec<bool> {
    let dedup = MinHashDeduplicator::new(threshold, bands, rows, 1).unwrap();
    let mut fingerprints = Fingerprints::new();
    for sig in signatures.chunks_exact(bands * rows) {
        fingerprints.push(sig).unwrap();
    }
    let want = ops_reference::minhash_keep_mask(signatures, bands, rows, threshold);
    for workers in 1..=8 {
        let got = dedup.cluster(&fingerprints, workers).unwrap();
        assert_eq!(got, want, "{bands} × {rows}, workers={workers}");
    }
    want
}

/// Three signatures sharing band 0 and no other band, where a ~ b and
/// b ~ c (5 of 8 words each) but a ≁ c (2 of 8): one component, which
/// only holds together through b. In every arrangement the run of band 0
/// must be verified pair by pair, not just neighbour by neighbour — with
/// b first or last, a and c are the neighbours and do not match.
#[test]
fn a_chain_in_one_bucket_is_one_component_in_every_order() {
    let a = [1, 1, 2, 3, 4, 5, 6, 7];
    let b = [1, 1, 2, 9, 4, 9, 6, 9];
    let c = [1, 1, 8, 9, 8, 9, 8, 9];
    for order in [
        [a, b, c],
        [a, c, b],
        [b, a, c],
        [b, c, a],
        [c, a, b],
        [c, b, a],
    ] {
        let signatures = order.concat();
        let mask = cluster_matches_oracle(&signatures, 4, 2, 0.6);
        assert_eq!(mask, [true, false, false], "{order:?}");
    }
}

/// One run holding every sample, and the sizes with nothing to compare.
#[test]
fn degenerate_inputs_match_the_oracle() {
    let one: Vec<u64> = (1..=8u64)
        .map(|w| w.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let same = one.repeat(2_000);
    let mask = cluster_matches_oracle(&same, 4, 2, 0.7);
    assert!(mask[0] && mask[1..].iter().all(|&k| !k));
    assert!(cluster_matches_oracle(&[], 4, 2, 0.7).is_empty());
    assert_eq!(cluster_matches_oracle(&one, 4, 2, 0.7), [true]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MinHash clustering agrees with the all-pairs oracle on the
    /// proptest corpus, at every worker count, with several bands and
    /// with one, several rows and one.
    #[test]
    fn prop_minhash_cluster_matches_the_all_pairs_oracle(texts in corpus_strategy()) {
        let data = Dataset::from_texts(texts);
        let mut ctx = SampleContext::new();
        for (bands, rows) in [(8, 4), (1, 4), (8, 1), (1, 1)] {
            let dedup = MinHashDeduplicator::new(0.7, bands, rows, 3).unwrap();
            let mut fingerprints = Fingerprints::new();
            for s in data.iter() {
                ctx.invalidate();
                fingerprints
                    .push_with(|out| dedup.fingerprint(s, &mut ctx, out))
                    .unwrap();
            }
            cluster_matches_oracle(fingerprints.words(), bands, rows, 0.7);
        }
    }

    /// The parallel mask is identical to the one-worker mask (through the
    /// `Value` adapters) for every deduplicator and worker count.
    #[test]
    fn prop_parallel_mask_identical_to_sequential(
        texts in corpus_strategy(),
        workers in 2usize..9,
    ) {
        let data = Dataset::from_texts(texts);
        for dedup in all_dedups() {
            let hashes = hashes_for(dedup.as_ref(), &data);
            let sequential = dedup.keep_mask(data.len(), &hashes).unwrap();
            let parallel = dedup
                .keep_mask_parallel(data.len(), &hashes, workers)
                .unwrap();
            prop_assert_eq!(
                &parallel, &sequential,
                "{} diverged at workers={}", dedup.name(), workers
            );
        }
    }
}
