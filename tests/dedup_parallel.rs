//! Dedup clustering held to oracles: for every built-in deduplicator,
//! `cluster` at every worker count 1..=8 equals its all-pairs oracle in
//! `tests/ops_reference` (`minhash_keep_mask`, `simhash_keep_mask`,
//! `exact_keep_mask`, `paragraph_keep_mask`) on random corpora and on
//! hand-built fingerprints. The executor's barrier in every shape is held
//! to a one-worker `keep_mask` by `tests/mode_matrix.rs`.
//!
//! The binary's allocator records the largest single allocation made by
//! any thread, so a test can bound what clustering holds at once on pool
//! threads. No test here allocates 1 MB or more at a time.

// Only the clustering oracles are used here; the rest of the reference
// serves `ops_differential.rs`.
#[allow(dead_code)]
mod ops_reference;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use data_juicer::core::{Dataset, Deduplicator, Fingerprints, SampleContext, Value};
use data_juicer::ops::{
    DocumentDeduplicator, MinHashDeduplicator, ParagraphDeduplicator, SimHashDeduplicator,
};

/// The largest single allocation, in bytes, any thread asked for since the
/// last reset. `Relaxed` is enough: it publishes no other data, and a test
/// reads it after the pool section that allocated has been joined.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Gauged;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; the gauge is one
// atomic and never allocates.
unsafe impl GlobalAlloc for Gauged {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Gauged = Gauged;

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

/// `dedup`'s fingerprints of every sample of `data`, as the barrier's hash
/// pass takes them.
fn fingerprints_of(dedup: &dyn Deduplicator, data: &Dataset) -> Fingerprints {
    let mut ctx = SampleContext::new();
    let mut fingerprints = Fingerprints::new();
    for s in data.iter() {
        ctx.invalidate();
        fingerprints
            .push_with(|out| dedup.fingerprint(s, &mut ctx, out))
            .unwrap();
    }
    fingerprints
}

/// Hand-built fingerprints, one run of words per sample.
fn laid_out<'a>(samples: impl IntoIterator<Item = &'a [u64]>) -> Fingerprints {
    let mut fingerprints = Fingerprints::new();
    for words in samples {
        fingerprints.push(words).unwrap();
    }
    fingerprints
}

/// `cluster` of `dedup` equals `want` at every worker count 1..=8.
fn cluster_is(dedup: &dyn Deduplicator, fingerprints: &Fingerprints, want: &[bool]) {
    for workers in 1..=8 {
        let got = dedup.cluster(fingerprints, workers).unwrap();
        assert_eq!(got, want, "{}, workers={workers}", dedup.name());
    }
}

/// `cluster` of a `bands × rows` MinHash deduplicator against the
/// all-pairs oracle on the same signatures (laid back to back); returns the
/// oracle's mask.
fn cluster_matches_oracle(
    signatures: &[u64],
    bands: usize,
    rows: usize,
    threshold: f64,
) -> Vec<bool> {
    let dedup = MinHashDeduplicator::new(threshold, bands, rows, 1).unwrap();
    let want = ops_reference::minhash_keep_mask(signatures, bands, rows, threshold);
    cluster_is(
        &dedup,
        &laid_out(signatures.chunks_exact(bands * rows)),
        &want,
    );
    want
}

/// `cluster` of a SimHash deduplicator at `max_distance` against the
/// all-pairs oracle on the same fingerprints; returns the oracle's mask.
fn simhash_matches_oracle(fingerprints: &[u64], max_distance: u32) -> Vec<bool> {
    let dedup = SimHashDeduplicator::new(max_distance).unwrap();
    let want = ops_reference::simhash_keep_mask(fingerprints, max_distance);
    cluster_is(&dedup, &laid_out(fingerprints.chunks(1)), &want);
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

/// The SimHash twin of the chain above: a, b and c agree on block 0 and
/// differ pairwise on the other three, a ~ b and b ~ c (3 bits each) but
/// a ≁ c (6 bits). Only block 0's run holds the component together.
#[test]
fn a_simhash_chain_in_one_block_is_one_component_in_every_order() {
    let a = 0x0000_0000_0000_beef;
    let b = 0x0001_0001_0001_beef;
    let c = 0x0003_0003_0003_beef;
    for order in [
        [a, b, c],
        [a, c, b],
        [b, a, c],
        [b, c, a],
        [c, a, b],
        [c, b, a],
    ] {
        let mask = simhash_matches_oracle(&order, 3);
        assert_eq!(mask, [true, false, false], "{order:x?}");
    }
}

/// A pair within the budget is a duplicate only when it agrees on some
/// block: two pairs 4 bits apart at `max_distance: 4`, one with a bit in
/// every block (never compared) and one with its bits in three blocks.
/// Then exact, near and far pairs beside each other.
#[test]
fn simhash_candidates_are_the_pairs_agreeing_on_a_block() {
    let (p, r) = (0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
    let spread = [p, p ^ 0x0001_0001_0001_0001, r, r ^ 0x0003_0001_0001_0000];
    assert_eq!(
        simhash_matches_oracle(&spread, 4),
        [true, true, true, false]
    );

    let base = 0xabcd_ef01_2345_6789;
    let mixed = [
        base,
        base ^ 0b11,
        base ^ 0x1111_0000_1111_0000,
        base,
        42,
        43,
    ];
    // 1 ≡ 0 (2 bits), 3 ≡ 0 (equal), 5 ≡ 4 (1 bit); 2 is 8 bits from 0.
    assert_eq!(
        simhash_matches_oracle(&mixed, 3),
        [true, false, true, false, true, false]
    );
}

/// One run of 2 000 in every block, and the sizes with nothing to compare.
#[test]
fn simhash_degenerate_inputs_match_the_oracle() {
    let mask = simhash_matches_oracle(&[0x5eed; 2_000], 0);
    assert!(mask[0] && mask[1..].iter().all(|&k| !k));
    assert!(simhash_matches_oracle(&[], 3).is_empty());
    assert_eq!(simhash_matches_oracle(&[7], 3), [true]);
}

/// Exact keys and paragraph hashes by hand: repeats, an empty sample, a
/// sample repeating its own paragraph, and one whose paragraphs were all
/// seen before.
#[test]
fn exact_and_paragraph_masks_match_their_oracles() {
    let exact = DocumentDeduplicator::new();
    let keys = [[1, 1], [2, 2], [1, 1], [3, 3], [2, 2], [1, 1], [4, 4]];
    let want = ops_reference::exact_keep_mask(&keys);
    assert_eq!(want, [true, true, false, true, false, false, true]);
    cluster_is(&exact, &laid_out(keys.iter().map(|k| &k[..])), &want);
    cluster_is(&exact, &Fingerprints::new(), &[]);
    cluster_is(&exact, &laid_out([&[5, 5][..]]), &[true]);

    let paragraph = ParagraphDeduplicator::new();
    let cases: [(&[&[u64]], &[bool]); 5] = [
        (
            &[&[10, 20][..], &[20, 30], &[10, 30], &[], &[10, 10], &[40]][..],
            &[true, true, false, true, false, true][..],
        ),
        (&[&[10, 10][..], &[], &[10]], &[true, true, false]),
        (&[], &[]),
        (&[&[]], &[true]),
        (&[&[9]], &[true]),
    ];
    for (samples, mask) in cases {
        let want = ops_reference::paragraph_keep_mask(samples);
        assert_eq!(want, mask, "{samples:?}");
        cluster_is(&paragraph, &laid_out(samples.iter().copied()), &want);
    }
}

/// 4 000 identical SimHash fingerprints (4 000 empty documents, say: an
/// empty text hashes to 0) make one run of 4 000 in every block. Its
/// k(k − 1)/2 pairs, collected before any union, would be one 64 MB
/// vector per block; clustering at two workers must hold nothing near
/// that at once.
#[test]
fn a_run_of_identical_simhashes_allocates_no_pair_list() {
    let fingerprints = laid_out([0u64; 4_000].chunks(1));
    let dedup = SimHashDeduplicator::new(3).unwrap();
    LARGEST.store(0, Ordering::Relaxed);
    let mask = dedup.cluster(&fingerprints, 2).unwrap();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(mask[0] && mask[1..].iter().all(|&k| !k));
    assert!(largest < 1 << 20, "one allocation of {largest} bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MinHash clustering agrees with the all-pairs oracle on the
    /// proptest corpus, at every worker count, with several bands and
    /// with one, several rows and one.
    #[test]
    fn prop_minhash_cluster_matches_the_all_pairs_oracle(texts in corpus_strategy()) {
        let data = Dataset::from_texts(texts);
        for (bands, rows) in [(8, 4), (1, 4), (8, 1), (1, 1)] {
            let dedup = MinHashDeduplicator::new(0.7, bands, rows, 3).unwrap();
            cluster_matches_oracle(fingerprints_of(&dedup, &data).words(), bands, rows, 0.7);
        }
    }

    /// SimHash at budgets inside and past the four-block guarantee, exact
    /// with and without normalization, and paragraph clustering agree with
    /// their oracles on the proptest corpus at every worker count.
    #[test]
    fn prop_simhash_exact_and_paragraph_cluster_match_their_oracles(
        texts in corpus_strategy(),
    ) {
        let data = Dataset::from_texts(texts);
        for max_distance in [0, 3, 8, 16] {
            let dedup = SimHashDeduplicator::new(max_distance).unwrap();
            simhash_matches_oracle(fingerprints_of(&dedup, &data).words(), max_distance);
        }
        for exact in [DocumentDeduplicator::new(), DocumentDeduplicator::normalized()] {
            let keys = fingerprints_of(&exact, &data);
            let want = ops_reference::exact_keep_mask(&keys.iter().collect::<Vec<_>>());
            cluster_is(&exact, &keys, &want);
        }
        let paragraph = ParagraphDeduplicator::new();
        let hashes = fingerprints_of(&paragraph, &data);
        let want = ops_reference::paragraph_keep_mask(&hashes.iter().collect::<Vec<_>>());
        cluster_is(&paragraph, &hashes, &want);
    }

    /// The `Value` adapters: `keep_mask_parallel` at any worker count
    /// returns what `keep_mask` returns, for every deduplicator.
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
