//! Cross-crate property tests on the core invariants DESIGN.md calls out:
//! nested-path laws, JSON/YAML round-trips, BPE round-trips, MinHash ≈
//! Jaccard, union-find vs naive connectivity, and normalization
//! idempotence.

use proptest::prelude::*;

use data_juicer::config::yaml::{parse_yaml, to_yaml};
use data_juicer::core::{parse_json, Value};
use data_juicer::hash::{ConcurrentUnionFind, MinHasher};
use data_juicer::text::normalize;
use data_juicer::text::BpeTokenizer;

/// Strategy for recipe-like Value trees (no NaN floats, map keys that the
/// YAML subset can carry).
fn value_tree() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1.0e6..1.0e6f64).prop_map(|f| Value::Float((f * 1000.0).round() / 1000.0)),
        "[a-zA-Z0-9_ .:#-]{0,24}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::btree_map("[a-z][a-z0-9_]{0,10}", inner, 0..4)
                .prop_map(Value::Map),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// set_path then get_path returns exactly what was written.
    #[test]
    fn prop_set_get_path_law(
        segs in proptest::collection::vec("[a-z]{1,6}", 1..4),
        v in value_tree(),
    ) {
        let path = segs.join(".");
        let mut root = Value::map();
        root.set_path(&path, v.clone()).unwrap();
        prop_assert_eq!(root.get_path(&path), Some(&v));
        // remove_path returns it and leaves the path vacant.
        let removed = root.remove_path(&path).unwrap();
        prop_assert!(removed.structural_eq(&v));
        prop_assert!(root.get_path(&path).is_none());
    }

    /// Display (JSON) followed by parse_json is the identity on value trees.
    #[test]
    fn prop_json_roundtrip(v in value_tree()) {
        let mut root = Value::map();
        root.set_path("payload", v).unwrap();
        let parsed = parse_json(&root.to_string()).unwrap();
        prop_assert_eq!(parsed, root);
    }

    /// to_yaml followed by parse_yaml is the identity on map-rooted trees
    /// (the recipe-config contract).
    #[test]
    fn prop_yaml_roundtrip(
        m in proptest::collection::btree_map("[a-z][a-z0-9_]{0,10}", value_tree(), 1..5)
    ) {
        let root = Value::Map(m);
        let emitted = to_yaml(&root);
        let parsed = parse_yaml(&emitted)
            .unwrap_or_else(|e| panic!("emitted YAML failed to parse: {e}\n{emitted}"));
        prop_assert_eq!(parsed, root);
    }

    /// BPE encode→decode is the identity on space-joined word text.
    #[test]
    fn prop_bpe_roundtrip(words in proptest::collection::vec("[a-z]{1,8}", 1..12)) {
        let corpus: Vec<String> = (0..10).map(|i| format!("training text number {i} with words")).collect();
        let tok = BpeTokenizer::train(&corpus, 400);
        let text = words.join(" ");
        let ids = tok.encode(&text);
        prop_assert_eq!(tok.decode(&ids), text);
    }

    /// MinHash similarity approximates true Jaccard within statistical
    /// tolerance on unigram shingles.
    #[test]
    fn prop_minhash_estimates_jaccard(
        shared in proptest::collection::hash_set("[a-f]{3,6}", 2..20),
        only_a in proptest::collection::hash_set("[g-m]{3,6}", 0..10),
        only_b in proptest::collection::hash_set("[n-t]{3,6}", 0..10),
    ) {
        let a: Vec<String> = shared.iter().chain(&only_a).cloned().collect();
        let b: Vec<String> = shared.iter().chain(&only_b).cloned().collect();
        let union = shared.len() + only_a.len() + only_b.len();
        let true_jaccard = shared.len() as f64 / union as f64;
        let mh = MinHasher::new(512, 1);
        let est = MinHasher::similarity(&mh.signature(&a), &mh.signature(&b));
        // 512 hashes → std error ≈ sqrt(p(1-p)/512) ≤ 0.023; allow 5 sigma.
        prop_assert!((est - true_jaccard).abs() < 0.12, "est={est} true={true_jaccard}");
    }

    /// Union-find connectivity matches a naive reachability check, and
    /// the first-occurrence mask keeps exactly each component's minimum.
    #[test]
    fn prop_unionfind_matches_naive(
        n in 2usize..24,
        edges in proptest::collection::vec((0usize..24, 0usize..24), 0..30),
    ) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .collect();
        let uf = ConcurrentUnionFind::new(n);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        // Naive reachability via adjacency + BFS.
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let reachable = |start: usize| {
            let mut seen = vec![false; n];
            let mut stack = vec![start];
            while let Some(x) = stack.pop() {
                if std::mem::replace(&mut seen[x], true) {
                    continue;
                }
                stack.extend(adj[x].iter().copied());
            }
            seen
        };
        for (i, keep) in uf.first_occurrence_mask().into_iter().enumerate() {
            let from_i = reachable(i);
            for (j, &r) in from_i.iter().enumerate() {
                prop_assert_eq!(uf.find(i) == uf.find(j), r, "pair ({}, {})", i, j);
            }
            let first = from_i.iter().position(|&r| r);
            prop_assert_eq!(keep, first == Some(i), "mask of {}", i);
        }
    }

    /// Whitespace and punctuation normalization are idempotent.
    #[test]
    fn prop_normalization_idempotent(text in "[ -~\\n\\t\u{201c}\u{201d}\u{2014}]{0,120}") {
        let w1 = normalize::normalize_whitespace(&text);
        prop_assert_eq!(normalize::normalize_whitespace(&w1), w1.clone());
        let p1 = normalize::normalize_punctuation(&text);
        prop_assert_eq!(normalize::normalize_punctuation(&p1), p1);
    }

    /// Dataset partition/concat is the identity for any shard count.
    #[test]
    fn prop_partition_concat_identity(
        texts in proptest::collection::vec(".{0,30}", 0..30),
        shards in 1usize..8,
    ) {
        let ds = data_juicer::core::Dataset::from_texts(texts);
        let original = ds.clone();
        let rebuilt = data_juicer::core::Dataset::concat(ds.partition(shards));
        prop_assert_eq!(rebuilt, original);
    }

    /// into_shards/from_shards round-trips for any shard count.
    #[test]
    fn prop_shard_roundtrip_identity(
        texts in proptest::collection::vec(".{0,30}", 0..40),
        shards in 1usize..12,
    ) {
        let ds = data_juicer::core::Dataset::from_texts(texts);
        let original = ds.clone();
        let rebuilt = data_juicer::core::Dataset::from_shards(ds.into_shards(shards));
        prop_assert_eq!(rebuilt, original);
    }
}

// ---- sharded-pipeline equivalence ---------------------------------------

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::Dataset;
use data_juicer::exec::{ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::synth::{web_corpus, WebNoise};

/// OP specs safe to compose in any order (mappers, filters and a dedup so
/// random recipes exercise the stage barrier).
fn shard_spec_pool() -> Vec<OpSpec> {
    vec![
        OpSpec::new("whitespace_normalization_mapper"),
        OpSpec::new("lowercase_mapper"),
        OpSpec::new("clean_links_mapper"),
        OpSpec::new("text_length_filter")
            .with("min_len", 10.0)
            .with("max_len", 1e9),
        OpSpec::new("word_num_filter")
            .with("min_num", 3.0)
            .with("max_num", 1e9),
        OpSpec::new("word_repetition_filter")
            .with("rep_len", 4i64)
            .with("max_ratio", 0.6),
        OpSpec::new("stopwords_filter").with("min_ratio", 0.0),
        OpSpec::new("document_deduplicator"),
    ]
}

/// A corpus guaranteed to contain exact duplicates (so the dedup barrier
/// actually removes samples and its cross-shard semantics are exercised).
fn duplicated_corpus(seed: u64) -> Dataset {
    let mut ds = web_corpus(seed, 30, WebNoise::default());
    let copies: Vec<_> = ds.iter().take(6).cloned().collect();
    for s in copies {
        ds.push(s);
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sharded pipelined engine is byte-identical to the sequential
    /// unfused baseline for random recipes, every shard count and corpora
    /// containing duplicates.
    #[test]
    fn prop_sharded_pipeline_matches_sequential_baseline(
        indices in proptest::collection::vec(0usize..8, 1..6),
        seed in 0u64..500,
    ) {
        let pool = shard_spec_pool();
        let mut recipe = Recipe::new("shard-prop");
        for &i in &indices {
            recipe = recipe.then(pool[i].clone());
        }
        let ops = recipe.build_ops(&builtin_registry()).unwrap();
        let data = duplicated_corpus(seed);

        // Sequential, unfused, single-shard, in-memory baseline.
        let baseline = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 1,
            op_fusion: false,
            shard_size: None,
            spill_dir: None,
            ..ExecOptions::default()
        });
        let (expected, _) = baseline.run(data.clone()).unwrap();
        let expected_bytes = data_juicer::store::to_bytes(&expected);

        for shards in [1usize, 2, 7, 64] {
            let shard_size = data.len().div_ceil(shards).max(1);
            for fusion in [false, true] {
                let exec = Executor::new(ops.clone()).with_options(ExecOptions {
                    num_workers: 4,
                    op_fusion: fusion,
                    shard_size: Some(shard_size),
                    ..ExecOptions::default()
                });
                let (out, report) = exec.run(data.clone()).unwrap();
                // Byte-identical: same texts, same stats, same order.
                prop_assert_eq!(
                    data_juicer::store::to_bytes(&out).as_slice(),
                    expected_bytes.as_slice(),
                    "shards={} fusion={} diverged", shards, fusion
                );
                prop_assert_eq!(report.final_samples, expected.len());
            }
        }
    }

    /// Out-of-core execution is byte-identical to in-memory execution for
    /// random recipes, arbitrary shard sizes, worker counts, memory
    /// budgets — whether the budget actually forces a spill or not, and
    /// from which stage on — and leaves the spill directory empty
    /// afterwards.
    #[test]
    fn prop_spilled_execution_matches_in_memory(
        indices in proptest::collection::vec(0usize..8, 1..5),
        seed in 0u64..500,
        shard_size in 1usize..40,
        workers in 1usize..5,
        budget_exp in 0u32..22,
    ) {
        let pool = shard_spec_pool();
        let mut recipe = Recipe::new("spill-prop");
        for &i in &indices {
            recipe = recipe.then(pool[i].clone());
        }
        let ops = recipe.build_ops(&builtin_registry()).unwrap();
        let data = duplicated_corpus(seed);

        // In-memory reference: identical shard layout, no budget.
        let reference = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: workers,
            op_fusion: true,
            shard_size: Some(shard_size),
            spill_dir: None,
            ..ExecOptions::default()
        });
        let (expected, _) = reference.run(data.clone()).unwrap();
        let expected_bytes = data_juicer::store::to_bytes(&expected);

        let spill_dir = std::env::temp_dir().join(format!(
            "dj-prop-spill-{}-{seed}-{shard_size}-{workers}-{budget_exp}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&spill_dir);
        std::fs::create_dir_all(&spill_dir).unwrap();
        let budget = 1u64 << budget_exp; // 1 byte … 2 MiB
        let spilled = Executor::new(ops).with_options(ExecOptions {
            num_workers: workers,
            op_fusion: true,
            shard_size: Some(shard_size),
            memory_budget: Some(budget),
            spill_dir: Some(spill_dir.clone()),
            ..ExecOptions::default()
        });
        let (out, report) = spilled.run(data.clone()).unwrap();
        prop_assert_eq!(
            data_juicer::store::to_bytes(&out).as_slice(),
            expected_bytes.as_slice(),
            "budget={} workers={} shard_size={} diverged",
            budget, workers, shard_size
        );
        // Oversized input must engage spilling (stats columns added
        // mid-run can also push a smaller input over the budget later, so
        // this is an implication, not an equivalence).
        if data.approx_bytes() as u64 > budget {
            prop_assert!(report.spilled);
        }
        if report.spilled {
            prop_assert!(report.peak_resident_samples <= workers * shard_size,
                "resident {} > bound {}", report.peak_resident_samples, workers * shard_size);
        }
        // Spools clean up after themselves.
        prop_assert_eq!(std::fs::read_dir(&spill_dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&spill_dir);
    }
}
