//! Enhanced samplers for LLM data (paper §5.2).
//!
//! "Our stratified sampling technique ... capitalizes on information within
//! the metadata or statistical fields ... we consider various heterogeneous
//! criteria such as document length, token count, the frequency of boolean
//! predicates ... and even linguistic diversity formulated via occurrences
//! of verb-noun pairs."

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dj_core::{Dataset, Sample};
use dj_hash::FxHashMap;
use dj_text::lexicon;

/// Uniform random sample of `n` items (without replacement).
pub fn random_sample(dataset: &Dataset, n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    indices.shuffle(&mut rng);
    indices.truncate(n);
    indices.sort_unstable(); // keep original order for determinism of output
    dataset.select(&indices)
}

/// Stratified sampling over an arbitrary bucketing function: draws up to
/// `per_bucket` samples from each bucket (uniformly within the bucket).
pub fn stratified_sample<F>(
    dataset: &Dataset,
    bucket_of: F,
    per_bucket: usize,
    seed: u64,
) -> Dataset
where
    F: Fn(&Sample) -> String,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buckets: FxHashMap<String, Vec<usize>> = FxHashMap::default();
    for (i, s) in dataset.iter().enumerate() {
        buckets.entry(bucket_of(s)).or_default().push(i);
    }
    let mut keys: Vec<&String> = buckets.keys().collect();
    keys.sort(); // deterministic bucket order
    let mut chosen = Vec::new();
    for k in keys {
        let mut idxs = buckets[k].clone();
        idxs.shuffle(&mut rng);
        idxs.truncate(per_bucket);
        chosen.extend(idxs);
    }
    chosen.sort_unstable();
    dataset.select(&chosen)
}

/// Stratify by quantile bins of a recorded statistic: `bins` equal-count
/// strata over `stats.<key>`, up to `per_bucket` samples each. Samples
/// missing the stat form their own stratum.
pub fn stratified_by_stat(
    dataset: &Dataset,
    key: &str,
    bins: usize,
    per_bucket: usize,
    seed: u64,
) -> Dataset {
    assert!(bins > 0, "need at least one bin");
    let mut values: Vec<f64> = dataset
        .iter()
        .filter_map(|s| s.stat(key))
        .filter(|v| v.is_finite())
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let cuts: Vec<f64> = if values.is_empty() {
        Vec::new()
    } else {
        (1..bins)
            .map(|i| values[(i * values.len() / bins).min(values.len() - 1)])
            .collect()
    };
    stratified_sample(
        dataset,
        |s| match s.stat(key) {
            None => "missing".to_string(),
            Some(v) => {
                let bin = cuts.iter().filter(|&&c| v >= c).count();
                format!("bin{bin:03}")
            }
        },
        per_bucket,
        seed,
    )
}

/// Diversity-maximizing sampler: stratify by the sample's most prominent
/// verb-noun pair so the selection spreads across instruction styles
/// (the recipe behind Table 3's Data-Juicer subsets).
pub fn diversity_sample(dataset: &Dataset, n: usize, seed: u64) -> Dataset {
    let verbs = lexicon::common_verbs();
    let nouns = lexicon::common_nouns();
    // Bucket by first verb-noun pair (or "none").
    let bucket_of = |s: &Sample| {
        let mut ctx = dj_core::SampleContext::new();
        lexicon::verb_noun_pairs(ctx.words(s.text()), &verbs, &nouns)
            .first()
            .map(|(v, o)| format!("{v}/{o}"))
            .unwrap_or_else(|| "none".to_string())
    };
    // Count buckets, then take a near-equal share from each until n filled.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buckets: FxHashMap<String, Vec<usize>> = FxHashMap::default();
    for (i, s) in dataset.iter().enumerate() {
        buckets.entry(bucket_of(s)).or_default().push(i);
    }
    let mut keys: Vec<String> = buckets.keys().cloned().collect();
    keys.sort();
    for k in &keys {
        buckets.get_mut(k).expect("key exists").shuffle(&mut rng);
    }
    let mut chosen = Vec::with_capacity(n);
    let mut round = 0;
    while chosen.len() < n {
        let mut advanced = false;
        for k in &keys {
            if chosen.len() >= n {
                break;
            }
            if let Some(&idx) = buckets[k].get(round) {
                chosen.push(idx);
                advanced = true;
            }
        }
        if !advanced {
            break; // dataset exhausted
        }
        round += 1;
    }
    chosen.sort_unstable();
    chosen.dedup();
    dataset.select(&chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged_dataset() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..100 {
            let mut s = Sample::from_text(format!("document {i}"));
            s.set_meta("source", if i % 4 == 0 { "web" } else { "book" });
            s.set_stat("text_len", i as f64);
            ds.push(s);
        }
        ds
    }

    #[test]
    fn random_sample_size_and_determinism() {
        let ds = tagged_dataset();
        let a = random_sample(&ds, 10, 7);
        let b = random_sample(&ds, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert_ne!(a, random_sample(&ds, 10, 8));
        assert_eq!(
            random_sample(&ds, 1000, 1).len(),
            100,
            "clamped to dataset size"
        );
    }

    #[test]
    fn stratified_by_meta_balances_buckets() {
        let ds = tagged_dataset();
        let out = stratified_sample(
            &ds,
            |s| {
                s.meta("source")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string()
            },
            5,
            3,
        );
        assert_eq!(out.len(), 10); // 5 web + 5 book
        let webs = out
            .iter()
            .filter(|s| s.meta("source").unwrap().as_str() == Some("web"))
            .count();
        assert_eq!(webs, 5);
    }

    #[test]
    fn stratified_by_stat_spans_range() {
        let ds = tagged_dataset();
        let out = stratified_by_stat(&ds, "text_len", 4, 2, 5);
        assert_eq!(out.len(), 8);
        // Selections cover low and high quartiles.
        let lens: Vec<f64> = out.iter().filter_map(|s| s.stat("text_len")).collect();
        assert!(lens.iter().any(|&v| v < 25.0));
        assert!(lens.iter().any(|&v| v >= 75.0));
    }

    #[test]
    fn diversity_sample_spreads_over_instructions() {
        let mut ds = Dataset::new();
        // 90 "write story" + 5 "explain plan" + 5 "translate email".
        for i in 0..90 {
            ds.push(Sample::from_text(format!("Write a story about topic {i}")));
        }
        for i in 0..5 {
            ds.push(Sample::from_text(format!("Explain the plan for step {i}")));
            ds.push(Sample::from_text(format!("Translate the email number {i}")));
        }
        let out = diversity_sample(&ds, 12, 9);
        assert_eq!(out.len(), 12);
        let explain = out
            .iter()
            .filter(|s| s.text().starts_with("Explain"))
            .count();
        let translate = out
            .iter()
            .filter(|s| s.text().starts_with("Translate"))
            .count();
        // Round-robin across buckets keeps minority styles represented
        // far above their 5% base rate.
        assert!(explain >= 3, "explain={explain}");
        assert!(translate >= 3, "translate={translate}");
    }

    #[test]
    fn diversity_sample_handles_small_n() {
        let ds = Dataset::from_texts(["Write a story now", "Explain the plan today"]);
        assert_eq!(diversity_sample(&ds, 1, 1).len(), 1);
        assert_eq!(diversity_sample(&ds, 10, 1).len(), 2);
    }

    #[test]
    fn empty_dataset_sampling() {
        let ds = Dataset::new();
        assert!(random_sample(&ds, 5, 1).is_empty());
        assert!(diversity_sample(&ds, 5, 1).is_empty());
    }
}
