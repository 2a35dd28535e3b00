//! Adaptive-planner invariants: mid-run replanning — in every pipeline
//! stage, a corpus run's ingest stage included — and barrier gating must
//! never change pipeline output, and a cache keyed by content identity is
//! shared by every plan of a recipe and resumes exactly the stages before
//! an edit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::Dataset;
use data_juicer::exec::{executor_from_recipe, EgressManifest, ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{to_jsonl, CacheManager, CacheMode};
use data_juicer::synth::{web_corpus, WebNoise};

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dj-adaptive-{tag}-{}-{seq}", std::process::id()))
}

fn texts(d: &Dataset) -> Vec<String> {
    d.iter().map(|s| s.text().to_string()).collect()
}

fn build(recipe: &Recipe) -> Vec<data_juicer::core::Op> {
    recipe.build_ops(&builtin_registry()).expect("ops build")
}

/// The misordered recipe: two equal-size fusible pairs, so the static
/// size-sort ties and keeps recipe order — the expensive keep-all WORDS
/// pair runs before the cheap selective CHARS pair until a stage's
/// measurements say otherwise.
fn misordered_recipe() -> Recipe {
    Recipe::new("misordered")
        .then(
            OpSpec::new("word_entropy_filter")
                .with("min_entropy", 0.0)
                .with("max_entropy", 1e6),
        )
        .then(
            OpSpec::new("average_word_length_filter")
                .with("min_len", 0.0)
                .with("max_len", 1e6),
        )
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", 0.5)
                .with("max_ratio", 1.0),
        )
        .then(
            OpSpec::new("special_characters_filter")
                .with("min_ratio", 0.0)
                .with("max_ratio", 0.4),
        )
}

/// A corpus where the CHARS pair is genuinely selective: a quarter of the
/// documents are symbol soup with a near-zero alphanumeric ratio.
fn selective_corpus(n: usize) -> Dataset {
    let mut docs = Vec::with_capacity(n);
    for i in 0..n {
        if i % 4 == 0 {
            docs.push(format!("@@@@ #### $$$$ %%%% ^^^^ &&&& **** (((( )))) {i}"));
        } else {
            docs.push(format!(
                "document number {i} carries enough ordinary prose to pass \
                 every word statistic comfortably and repeatedly"
            ));
        }
    }
    Dataset::from_texts(docs)
}

/// Where the data lives: resident or spilled — the `memory_budget`.
const SHAPES: [Option<u64>; 2] = [None, Some(1)];

fn run_with(
    ops: Vec<data_juicer::core::Op>,
    data: Dataset,
    opts: ExecOptions,
) -> (Dataset, data_juicer::exec::RunReport) {
    Executor::new(ops)
        .with_options(opts)
        .run(data)
        .expect("pipeline runs")
}

// ---- adaptive ≡ static byte-identity --------------------------------

/// Pool of commutable-safe OPs for randomized pipelines (mix of mappers,
/// contextless/context filters, and a dedup barrier).
fn spec_pool() -> Vec<OpSpec> {
    vec![
        OpSpec::new("whitespace_normalization_mapper"),
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
        OpSpec::new("average_line_length_filter")
            .with("min_len", 0.0)
            .with("max_len", 1e9),
        OpSpec::new("word_entropy_filter")
            .with("min_entropy", 0.0)
            .with("max_entropy", 1e6),
        OpSpec::new("document_deduplicator"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Mid-run replanning never changes the output: for random pipelines ×
    /// worker counts × shard sizes, in memory and spilled, adaptive output
    /// is byte-identical to static.
    #[test]
    fn prop_adaptive_matches_static(
        mask in 1u32..(1 << 8),
        np in 1usize..4,
        shard in prop_oneof![Just(None), Just(Some(3usize)), Just(Some(17usize))],
        shape in 0usize..2,
        seed in 0u64..500,
    ) {
        let pool = spec_pool();
        let mut recipe = Recipe::new("prop-adaptive").with_np(np);
        for (i, spec) in pool.into_iter().enumerate() {
            if mask & (1 << i) != 0 {
                recipe = recipe.then(spec);
            }
        }
        let data = web_corpus(seed, 60, WebNoise::default());
        let memory_budget = SHAPES[shape];
        let base = ExecOptions {
            num_workers: np,
            op_fusion: true,
            shard_size: shard,
            memory_budget,
            ..ExecOptions::default()
        };
        let (static_out, _) = run_with(build(&recipe), data.clone(), base.clone());
        let (adaptive_out, _) = run_with(
            build(&recipe),
            data,
            ExecOptions { adaptive: true, ..base },
        );
        prop_assert_eq!(texts(&static_out), texts(&adaptive_out));
    }
}

// ---- mid-run re-planning ---------------------------------------------

/// A stage misordered on purpose replans once its first shards are
/// measured, resident, spilled and file to file, and nobody can tell from
/// the output.
#[test]
fn midrun_replan_flips_misordered_stage() {
    let recipe = misordered_recipe();
    let data = selective_corpus(400);
    let mut static_jsonl = None;
    for memory_budget in SHAPES {
        let shape = format!("budget={memory_budget:?}");
        let static_opts = ExecOptions {
            num_workers: 2,
            op_fusion: true,
            shard_size: Some(10),
            memory_budget,
            ..ExecOptions::default()
        };
        let (static_out, _) = run_with(build(&recipe), data.clone(), static_opts.clone());

        // The replanner measures the first eight shards (a quarter of the
        // stage's 40, clamped to [1, 8]), sees the keep-all WORDS pair
        // scoring ~1000× worse than the selective CHARS pair, and reorders
        // the remaining 32 shards — resident or streamed from a spool.
        let (out, report) = run_with(
            build(&recipe),
            data.clone(),
            ExecOptions {
                adaptive: true,
                ..static_opts
            },
        );
        assert_eq!(report.spilled, memory_budget.is_some(), "{shape}");
        assert!(
            report.replans >= 1,
            "{shape}: misordered commutable stage must trigger a mid-run replan"
        );
        assert_eq!(
            texts(&static_out),
            texts(&out),
            "{shape}: mid-run reordering is byte-invisible"
        );
        // Stats still merge onto canonical plan positions.
        assert!(
            report.ops[0].name.contains("word_entropy_filter"),
            "{shape}"
        );
        static_jsonl.get_or_insert_with(|| to_jsonl(&static_out));
    }

    // File to file: the one stage runs during ingest, whose shard count is
    // unknown until the reader runs dry, so it replans after eight shards.
    let dir = scratch_dir("ingest");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("corpus.jsonl");
    std::fs::write(&input, to_jsonl(&data)).unwrap();
    let out_dir = dir.join("out");
    let (_, report) = Executor::new(build(&recipe))
        .with_options(ExecOptions {
            num_workers: 2,
            op_fusion: true,
            shard_size: Some(10),
            adaptive: true,
            input: Some(input.to_string_lossy().into_owned()),
            output: Some(out_dir.clone()),
            ..ExecOptions::default()
        })
        .run_io()
        .expect("file run");
    assert!(report.ingest_bytes > 0 && report.stages == 1);
    assert!(
        report.replans >= 1,
        "the ingest stage must replan a misordered stage"
    );
    let written: String = EgressManifest::load(&out_dir)
        .unwrap()
        .parts
        .iter()
        .map(|p| std::fs::read_to_string(out_dir.join(&p.file)).unwrap())
        .collect();
    assert_eq!(
        Some(written),
        static_jsonl,
        "ingest-stage reordering is byte-invisible"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- cache identity ----------------------------------------------------

/// An executor for `recipe` that carries its op identities, as a cached
/// run needs, under `opts`.
fn cached(recipe: &Recipe, opts: ExecOptions) -> Executor {
    executor_from_recipe(recipe, &builtin_registry(), opts.op_fusion)
        .expect("ops build")
        .with_options(opts)
}

/// A barrier between two filter runs, and a threshold after it to edit:
/// stages `[3 steps] · dedup · [2 steps]`, fused or not.
fn barrier_recipe(min_len: f64) -> Recipe {
    Recipe::new("edit-after-barrier")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("lowercase_mapper"))
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", 0.1)
                .with("max_ratio", 1.0),
        )
        .then(OpSpec::new("document_deduplicator"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", min_len)
                .with("max_len", 1e9),
        )
        .then(
            OpSpec::new("word_entropy_filter")
                .with("min_entropy", 0.0)
                .with("max_entropy", 1e6),
        )
}

/// Under one cache root, editing the threshold of a filter placed after a
/// barrier resumes every stage before it, and the edited run's output is
/// byte-identical to a cold run, at np 1 and 3, static and adaptive, in
/// the shape `memory_budget` picks.
fn threshold_edit_after_a_barrier(memory_budget: Option<u64>, seed: u64) {
    let data = web_corpus(seed, 80, WebNoise::default());
    for np in [1, 3] {
        for adaptive in [false, true] {
            let tag = format!("np {np} adaptive {adaptive} budget {memory_budget:?}");
            let dir = scratch_dir("edit");
            let cache = CacheManager::new(&dir, CacheMode::Cache);
            let opts = ExecOptions {
                num_workers: np,
                adaptive,
                shard_size: Some(16),
                memory_budget,
                ..ExecOptions::default()
            };
            let exec = |min_len| cached(&barrier_recipe(min_len), opts.clone());
            let (unedited, cold) = exec(8.0).run_with_cache(data.clone(), &cache).unwrap();
            assert_eq!(cold.resumed_steps, 0, "{tag}: a cold root resumes nothing");
            assert_eq!(cold.spilled, memory_budget.is_some(), "{tag}");
            let (out, edited) = exec(500.0).run_with_cache(data.clone(), &cache).unwrap();
            assert_eq!(edited.resumed_steps, 4, "{tag}: the stages before the edit");
            assert_eq!(edited.ops.len(), 2, "{tag}: only the edited stage ran");
            assert!(out.len() < unedited.len(), "{tag}: the edit drops samples");
            let (fresh, _) = run_with(build(&barrier_recipe(500.0)), data.clone(), opts);
            assert_eq!(to_jsonl(&out), to_jsonl(&fresh), "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_threshold_edit_after_a_barrier_resumes_every_stage_before_it() {
    threshold_edit_after_a_barrier(SHAPES[0], 7);
}

#[test]
fn a_threshold_edit_after_a_barrier_resumes_spilled_entries() {
    threshold_edit_after_a_barrier(SHAPES[1], 11);
}

/// Fusion and replanning only move steps inside a stage, so every plan of
/// one recipe shares its cache entries: a run resumes every stage a run in
/// another plan cached — fused ↔ unfused, static ↔ adaptive — with
/// byte-identical output.
#[test]
fn every_plan_of_a_recipe_resumes_the_entries_another_plan_cached() {
    let recipe = misordered_recipe().then(OpSpec::new("document_deduplicator"));
    let data = selective_corpus(400);
    for memory_budget in SHAPES {
        let base = ExecOptions {
            num_workers: 2,
            shard_size: memory_budget.map(|_| 40),
            memory_budget,
            ..ExecOptions::default()
        };
        let fused = ExecOptions {
            op_fusion: true,
            ..base.clone()
        };
        let unfused = ExecOptions {
            op_fusion: false,
            ..base.clone()
        };
        let adaptive = ExecOptions {
            adaptive: true,
            ..fused.clone()
        };
        let (expected, _) = run_with(build(&recipe), data.clone(), fused.clone());
        let expected = to_jsonl(&expected);
        let steps = |opts: &ExecOptions| cached(&recipe, opts.clone()).plan().steps.len();
        assert_eq!((steps(&fused), steps(&unfused)), (3, 5));
        for (first, then) in [
            (&fused, &unfused),
            (&unfused, &fused),
            (&fused, &adaptive),
            (&adaptive, &fused),
        ] {
            let tag = format!(
                "budget {memory_budget:?} fusion {} adaptive {}",
                first.op_fusion, first.adaptive
            );
            let dir = scratch_dir("plans");
            let cache = CacheManager::new(&dir, CacheMode::Cache);
            cached(&recipe, first.clone())
                .run_with_cache(data.clone(), &cache)
                .unwrap();
            let (out, report) = cached(&recipe, then.clone())
                .run_with_cache(data.clone(), &cache)
                .unwrap();
            assert_eq!(report.resumed_steps, steps(then), "{tag}");
            assert!(report.ops.is_empty(), "{tag}");
            assert_eq!(to_jsonl(&out), expected, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---- barrier gating ---------------------------------------------------

/// The gating decision is the barrier's, whatever shape the data is in.
#[test]
fn barrier_gating_decisions_are_recorded() {
    let recipe = Recipe::new("gate").then(OpSpec::new("document_deduplicator"));
    let small = web_corpus(3, 50, WebNoise::default());
    let tiny_docs: Vec<String> = (0..2100).map(|i| format!("doc {i} text")).collect();
    for memory_budget in SHAPES {
        let opts = |num_workers| ExecOptions {
            num_workers,
            shard_size: Some(64),
            memory_budget,
            ..ExecOptions::default()
        };

        // Small input on a 2-worker pool: sequential, "small-input".
        let (_, r) = run_with(build(&recipe), small.clone(), opts(2));
        assert_eq!(r.spilled, memory_budget.is_some());
        let d = &r.barrier_decisions[0];
        assert_eq!((d.reason, d.workers, d.parallel), ("small-input", 1, false));
        assert_eq!(d.name, "document_deduplicator");
        assert_eq!(d.samples, 50);

        // One worker: "single-worker".
        let (_, r) = run_with(build(&recipe), small.clone(), opts(1));
        assert_eq!(r.barrier_decisions[0].reason, "single-worker");

        // Enough samples per worker: the banded exchange runs.
        let (_, r) = run_with(
            build(&recipe),
            Dataset::from_texts(tiny_docs.clone()),
            opts(2),
        );
        let d = &r.barrier_decisions[0];
        assert_eq!((d.reason, d.workers, d.parallel), ("parallel", 2, true));
    }
}
