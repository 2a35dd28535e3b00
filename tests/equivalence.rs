//! Cross-crate equivalence invariants: the optimizations (fusion,
//! parallelism, caching, distribution) must never change pipeline output.
//! Includes a property test over randomly composed pipelines.

use proptest::prelude::*;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::Dataset;
use data_juicer::dist::{run_distributed, Backend, ClusterSpec};
use data_juicer::exec::{ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{CacheManager, CacheMode};
use data_juicer::synth::{web_corpus, WebNoise};

fn texts(d: &Dataset) -> Vec<String> {
    d.iter().map(|s| s.text().to_string()).collect()
}

/// Where the data lives: resident, spilled to row frames, spilled to
/// columnar frames — `(memory_budget, columnar)`.
const SHAPES: [(Option<u64>, bool); 3] = [(None, false), (Some(1), false), (Some(1), true)];

fn run(ops: Vec<data_juicer::core::Op>, data: Dataset, np: usize, fusion: bool) -> Dataset {
    run_in(ops, data, np, fusion, SHAPES[0])
}

fn run_in(
    ops: Vec<data_juicer::core::Op>,
    data: Dataset,
    np: usize,
    fusion: bool,
    (memory_budget, columnar): (Option<u64>, bool),
) -> Dataset {
    Executor::new(ops)
        .with_options(ExecOptions {
            num_workers: np,
            op_fusion: fusion,
            trace_examples: 0,
            shard_size: memory_budget.map(|_| 7),
            memory_budget,
            columnar,
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
        shape in 0usize..3,
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

#[test]
fn cache_resume_after_recipe_extension_matches_fresh_run() {
    // Run recipe A with caching; extend it to A+B; the resumed run must
    // equal a fresh A+B run (the §4.1.1 "smaller-scale adjustments" case).
    let registry = builtin_registry();
    let data = web_corpus(77, 120, WebNoise::default());
    let dir = std::env::temp_dir().join(format!("dj-it-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let base = Recipe::new("resume")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 20.0)
                .with("max_len", 1e9),
        );
    let extended = base.clone().then(OpSpec::new("document_deduplicator"));

    // The two recipes share a fingerprinted cache only if keyed identically;
    // here we reuse one cache space keyed by the *base* fingerprint to
    // exercise prefix-matching.
    let cache = CacheManager::new(&dir, base.fingerprint(), CacheMode::Cache);
    let exec_base = Executor::new(base.build_ops(&registry).unwrap()).with_options(ExecOptions {
        num_workers: 1,
        op_fusion: false,
        trace_examples: 0,
        shard_size: None,
        ..ExecOptions::default()
    });
    exec_base.run_with_cache(data.clone(), &cache).unwrap();

    let exec_ext =
        Executor::new(extended.build_ops(&registry).unwrap()).with_options(ExecOptions {
            num_workers: 1,
            op_fusion: false,
            trace_examples: 0,
            shard_size: None,
            ..ExecOptions::default()
        });
    let (resumed, report) = exec_ext.run_with_cache(data.clone(), &cache).unwrap();
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

#[test]
fn distributed_backends_agree_with_local_execution() {
    let registry = builtin_registry();
    let recipe = Recipe::new("dist-eq")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 4.0)
                .with("max_num", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
        .then(OpSpec::new("lowercase_mapper"));
    let ops = recipe.build_ops(&registry).unwrap();
    let data = web_corpus(88, 150, WebNoise::default());
    let local = run(ops.clone(), data.clone(), 2, true);
    for backend in [Backend::Ray, Backend::Beam] {
        for nodes in [2usize, 5] {
            let (out, _) = run_distributed(
                &ops,
                data.clone(),
                ClusterSpec::paper_platform(nodes),
                backend,
            )
            .unwrap();
            assert_eq!(
                texts(&out),
                texts(&local),
                "{backend:?} with {nodes} nodes diverged"
            );
        }
    }
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
