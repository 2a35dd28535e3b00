//! Property tests for the parallel dedup barrier (the banded hash
//! exchange): for every deduplicator, over random datasets × duplicate
//! rates × worker counts, the parallel keep mask must be identical to the
//! sequential one. The executor's barrier in every shape is held to a
//! sequential `keep_mask` oracle by `tests/mode_matrix.rs`.

use proptest::prelude::*;

use data_juicer::core::{Dataset, Deduplicator, SampleContext, Value};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The banded parallel mask is identical to the sequential mask for
    /// every deduplicator and worker count.
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
