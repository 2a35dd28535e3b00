//! Cross-crate equivalence invariants: the optimizations (fusion,
//! parallelism, caching) must never change pipeline output.
//! Includes a property test over randomly composed pipelines.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::Dataset;
use data_juicer::exec::{executor_from_recipe, ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{to_jsonl, CacheManager, CacheMode};
use data_juicer::synth::{web_corpus, WebNoise};

fn texts(d: &Dataset) -> Vec<String> {
    d.iter().map(|s| s.text().to_string()).collect()
}

/// Where the data lives: resident or spilled — the `memory_budget`.
const SHAPES: [Option<u64>; 2] = [None, Some(1)];

fn run(ops: Vec<data_juicer::core::Op>, data: Dataset, np: usize, fusion: bool) -> Dataset {
    run_in(ops, data, np, fusion, SHAPES[0])
}

fn run_in(
    ops: Vec<data_juicer::core::Op>,
    data: Dataset,
    np: usize,
    fusion: bool,
    memory_budget: Option<u64>,
) -> Dataset {
    Executor::new(ops)
        .with_options(ExecOptions {
            num_workers: np,
            op_fusion: fusion,
            trace_examples: 0,
            shard_size: memory_budget.map(|_| 7),
            memory_budget,
            ..ExecOptions::default()
        })
        .run(data)
        .expect("pipeline runs")
        .0
}

/// A pool of OP specs safe to compose in any order.
fn spec_pool() -> Vec<OpSpec> {
    vec![
        OpSpec::new("whitespace_normalization_mapper"),
        OpSpec::new("punctuation_normalization_mapper"),
        OpSpec::new("clean_links_mapper"),
        OpSpec::new("lowercase_mapper"),
        OpSpec::new("text_length_filter")
            .with("min_len", 10.0)
            .with("max_len", 1e9),
        OpSpec::new("word_num_filter")
            .with("min_num", 3.0)
            .with("max_num", 1e9),
        OpSpec::new("alphanumeric_ratio_filter")
            .with("min_ratio", 0.1)
            .with("max_ratio", 1.0),
        OpSpec::new("word_repetition_filter")
            .with("rep_len", 4i64)
            .with("max_ratio", 0.6),
        OpSpec::new("stopwords_filter").with("min_ratio", 0.0),
        OpSpec::new("flagged_words_filter").with("max_ratio", 0.2),
        OpSpec::new("document_deduplicator"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random subsets/orders of the OP pool: fused == unfused ==
    /// parallel, resident or spilled. (The unfused plan is the one thing
    /// here `tests/mode_matrix.rs` does not vary.)
    #[test]
    fn prop_fusion_and_parallelism_preserve_output(
        indices in proptest::collection::vec(0usize..11, 1..7),
        seed in 0u64..1000,
        shape in 0usize..2,
    ) {
        let pool = spec_pool();
        let mut recipe = Recipe::new("prop");
        for &i in &indices {
            recipe = recipe.then(pool[i].clone());
        }
        let registry = builtin_registry();
        let ops = recipe.build_ops(&registry).unwrap();
        let data = web_corpus(seed, 40, WebNoise::default());

        let baseline = run(ops.clone(), data.clone(), 1, false);
        let shape = SHAPES[shape];
        let fused = run_in(ops.clone(), data.clone(), 1, true, shape);
        let parallel = run_in(ops.clone(), data.clone(), 4, false, shape);
        let both = run_in(ops, data, 4, true, shape);
        prop_assert_eq!(texts(&fused), texts(&baseline));
        prop_assert_eq!(texts(&parallel), texts(&baseline));
        prop_assert_eq!(texts(&both), texts(&baseline));
    }
}

/// An executor for `recipe` that carries its op identities, as a cached
/// run needs: one worker, unfused, so `resumed_steps` counts recipe ops.
fn cached(recipe: &Recipe) -> Executor {
    executor_from_recipe(recipe, &builtin_registry(), false)
        .unwrap()
        .with_options(ExecOptions {
            num_workers: 1,
            op_fusion: false,
            ..ExecOptions::default()
        })
}

fn cache_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dj-it-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every entry file directly under a cache root.
fn entries(root: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "djc"))
        .collect();
    out.sort();
    out
}

#[test]
fn cache_resume_after_recipe_extension_matches_fresh_run() {
    // Run recipe A with caching; extend it to A+B; the resumed run must
    // equal a fresh A+B run (the §4.1.1 "smaller-scale adjustments" case).
    let registry = builtin_registry();
    let data = web_corpus(77, 120, WebNoise::default());
    let dir = cache_root("extend");

    let base = Recipe::new("resume")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 20.0)
                .with("max_len", 1e9),
        );
    let extended = base.clone().then(OpSpec::new("document_deduplicator"));

    // One cache root for both recipes: the entries' content identities,
    // not a directory per recipe, decide what the extended run reuses.
    let cache = CacheManager::new(&dir, CacheMode::Cache);
    cached(&base).run_with_cache(data.clone(), &cache).unwrap();
    let (resumed, report) = cached(&extended)
        .run_with_cache(data.clone(), &cache)
        .unwrap();
    assert_eq!(
        report.resumed_steps, 2,
        "the shared prefix must come from cache"
    );

    let (fresh, _) = Executor::new(extended.build_ops(&registry).unwrap())
        .run(data)
        .unwrap();
    assert_eq!(texts(&resumed), texts(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recipe the cache-identity tests edit: a whitespace mapper and a
/// length filter, over texts of lengths 1..=40.
fn length_recipe(min_len: f64) -> Recipe {
    Recipe::new("cache-identity")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", min_len)
                .with("max_len", 1e9),
        )
}

fn texts_of_lengths(lengths: std::ops::RangeInclusive<usize>, fill: char) -> Dataset {
    Dataset::from_texts(lengths.map(|n| fill.to_string().repeat(n)))
}

/// A parameter edit under one cache root is a different op: the edited
/// run returns what a fresh run of the edited recipe returns, never the
/// stale entry of the unedited one.
#[test]
fn a_param_edit_under_one_cache_root_returns_the_fresh_runs_output() {
    let dir = cache_root("param-edit");
    let cache = CacheManager::new(&dir, CacheMode::Cache);
    let data = texts_of_lengths(1..=40, 'x');
    let (first, _) = cached(&length_recipe(10.0))
        .run_with_cache(data.clone(), &cache)
        .unwrap();
    assert_eq!(first.len(), 31);
    let (edited, report) = cached(&length_recipe(30.0))
        .run_with_cache(data.clone(), &cache)
        .unwrap();
    assert_eq!(report.resumed_steps, 0, "the edited op's stage reran");
    assert_eq!(edited.len(), 11);
    let (fresh, _) = cached(&length_recipe(30.0)).run(data).unwrap();
    assert_eq!(to_jsonl(&edited), to_jsonl(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same recipe over another input is a miss under the same root, and
/// so is an entry of the layout earlier releases saved — a
/// `recipe-<fingerprint>/<index>-<stage>.djc` file holding the very
/// samples this run would resume.
#[test]
fn a_different_input_or_an_old_layout_entry_under_one_root_is_a_miss() {
    let dir = cache_root("other-input");
    let cache = CacheManager::new(&dir, CacheMode::Cache);
    let exec = cached(&length_recipe(10.0));
    let (first, _) = exec
        .run_with_cache(texts_of_lengths(1..=40, 'x'), &cache)
        .unwrap();
    assert_eq!(first.len(), 31);
    let other = texts_of_lengths(41..=80, 'y');
    let (out, report) = exec.run_with_cache(other.clone(), &cache).unwrap();
    assert_eq!(report.resumed_steps, 0, "another input resumed an entry");
    assert_eq!(out.len(), 40);
    assert_eq!(
        to_jsonl(&out),
        to_jsonl(&exec.run(other.clone()).unwrap().0)
    );

    let mine = exec.run_with_cache(other.clone(), &cache).unwrap().1;
    assert_eq!(mine.resumed_steps, 2, "an unchanged re-run resumes");
    let _ = std::fs::remove_dir_all(&dir);

    // The one entry of `other`, moved to where an earlier release kept it.
    exec.run_with_cache(other.clone(), &cache).unwrap();
    let [entry] = &entries(&dir)[..] else {
        panic!("one stage, one entry")
    };
    let old = dir.join("recipe-00c0ffee00c0ffee");
    std::fs::create_dir_all(&old).unwrap();
    let name = "0000-whitespace_normalization_mapper+text_length_filter.djc";
    std::fs::rename(entry, old.join(name)).unwrap();
    let (out, report) = exec.run_with_cache(other, &cache).unwrap();
    assert_eq!(report.resumed_steps, 0, "an old-layout entry was resumed");
    assert_eq!(out.len(), 40);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint mode keeps one entry per run — a resumed run retires the
/// entry it resumed from once its next stage is saved — and never touches
/// another recipe's entries under the same root.
#[test]
fn checkpoint_mode_keeps_one_entry_per_run_and_spares_other_recipes() {
    let dir = cache_root("checkpoint");
    let data = web_corpus(5, 60, WebNoise::default());
    let other = Recipe::new("other")
        .then(OpSpec::new("lowercase_mapper"))
        .then(OpSpec::new("document_deduplicator"))
        .then(OpSpec::new("clean_links_mapper"));
    let cache = CacheManager::new(&dir, CacheMode::Cache);
    cached(&other).run_with_cache(data.clone(), &cache).unwrap();
    let kept = entries(&dir);
    assert_eq!(kept.len(), 3, "one entry per stage in cache mode");

    let head = length_recipe(10.0).then(OpSpec::new("document_deduplicator"));
    let tail = head
        .clone()
        .then(OpSpec::new("lowercase_mapper"))
        .then(OpSpec::new("paragraph_deduplicator"));
    let ckpt = CacheManager::new(&dir, CacheMode::Checkpoint);
    let (_, report) = cached(&head).run_with_cache(data.clone(), &ckpt).unwrap();
    assert_eq!((report.stages, report.resumed_steps), (2, 0));
    assert_eq!(entries(&dir).len(), 4, "a checkpointed run keeps one");
    // Extended: resumes the head's entry, runs two more stages, and keeps
    // only its last.
    let (out, report) = cached(&tail).run_with_cache(data.clone(), &ckpt).unwrap();
    assert_eq!((report.stages, report.resumed_steps), (4, 3));
    assert_eq!(entries(&dir).len(), 4, "the resumed entry was retired");
    assert_eq!(
        to_jsonl(&out),
        to_jsonl(&cached(&tail).run(data.clone()).unwrap().0)
    );
    let (_, report) = cached(&tail).run_with_cache(data.clone(), &ckpt).unwrap();
    assert_eq!(report.resumed_steps, 5, "the one entry is the run's last");
    assert_eq!(entries(&dir).len(), 4);

    for entry in &kept {
        assert!(entry.is_file(), "{} was removed", entry.display());
    }
    let (_, report) = cached(&other).run_with_cache(data, &cache).unwrap();
    assert_eq!(report.resumed_steps, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serialization_roundtrip_preserves_pipeline_output() {
    let registry = builtin_registry();
    let ops = Recipe::new("serde")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("document_deduplicator"))
        .build_ops(&registry)
        .unwrap();
    let (out, _) = Executor::new(ops)
        .run(web_corpus(99, 60, WebNoise::default()))
        .unwrap();
    // Binary and JSONL roundtrips preserve everything, including stats.
    let bin = data_juicer::store::to_bytes(&out);
    assert_eq!(data_juicer::store::from_bytes(&bin).unwrap(), out);
    let jsonl = data_juicer::store::to_jsonl(&out);
    assert_eq!(data_juicer::store::from_jsonl(&jsonl).unwrap(), out);
}
