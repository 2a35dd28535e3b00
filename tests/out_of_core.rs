//! Out-of-core execution tests: the constant-memory ceiling, spill-dir
//! hygiene, and cache interplay of the spill-to-disk engine.

use std::path::PathBuf;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::Dataset;
use data_juicer::exec::{executor_from_recipe, ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{CacheManager, CacheMode};
use data_juicer::synth::{web_corpus, WebNoise};

fn fig9_style_recipe() -> Recipe {
    Recipe::new("out-of-core")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 10.0)
                .with("max_len", 1e9),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 3.0)
                .with("max_num", 1e9),
        )
        .then(
            OpSpec::new("word_repetition_filter")
                .with("rep_len", 5i64)
                .with("max_ratio", 0.6),
        )
        .then(OpSpec::new("stopwords_filter").with("min_ratio", 0.0))
        .then(OpSpec::new("document_deduplicator"))
}

fn corpus() -> Dataset {
    let mut ds = web_corpus(41, 160, WebNoise::default());
    // Guarantee cross-shard duplicates so the spilled barrier does real work.
    let copies: Vec<_> = ds.iter().take(12).cloned().collect();
    for s in copies {
        ds.push(s);
    }
    ds
}

fn spill_exec(np: usize, shard_size: usize, dir: Option<PathBuf>) -> Executor {
    let exec = executor_from_recipe(&fig9_style_recipe(), &builtin_registry(), true).unwrap();
    exec.with_options(ExecOptions {
        num_workers: np,
        op_fusion: true,
        trace_examples: 0,
        shard_size: Some(shard_size),
        memory_budget: Some(1),
        spill_dir: dir,
        ..ExecOptions::default()
    })
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dj-ooc-test-{tag}-{}", std::process::id()))
}

/// The headline constant-memory property: while stages stream spilled
/// shards, the engine's shard-resident accounting never exceeds
/// `num_workers × shard_size` samples — one shard in each worker's hands,
/// nothing read ahead. The worker count is the one knob on that ceiling:
/// for every `np` it is `np × shard_size`, far below the whole dataset,
/// and the output never changes.
#[test]
fn np_scales_the_resident_ceiling() {
    let data = corpus();
    let ops = fig9_style_recipe().build_ops(&builtin_registry()).unwrap();
    let baseline = Executor::new(ops).with_options(ExecOptions {
        num_workers: 1,
        op_fusion: false,
        trace_examples: 0,
        ..ExecOptions::default()
    });
    let (expected, _) = baseline.run(data.clone()).unwrap();
    let shapes = [
        (1usize, 8usize),
        (2, 8),
        (2, 16),
        (3, 4),
        (3, 5),
        (4, 5),
        (4, 8),
    ];
    for (np, shard_size) in shapes {
        let (out, report) = spill_exec(np, shard_size, None).run(data.clone()).unwrap();
        let tag = format!("np={np} shard_size={shard_size}");
        assert_eq!(out, expected, "{tag} diverged");
        assert!(report.spilled, "{tag}: 1-byte budget must engage spilling");
        assert!(report.peak_resident_samples > 0, "{tag}");
        let bound = np * shard_size;
        assert!(
            report.peak_resident_samples <= bound,
            "{tag}: {} resident samples > bound {bound}",
            report.peak_resident_samples
        );
        assert!(report.peak_resident_bytes > 0, "{tag}");
        assert!(report.peak_resident_bytes < data.approx_bytes(), "{tag}");
    }
}

/// A recipe that still carries the retired `prefetch_depth` key — even the
/// `0` that was once a config error — loads as the same recipe without it,
/// and runs to the same output within the same `np × shard_size` ceiling.
#[test]
fn retired_prefetch_depth_key_is_ignored() {
    let data = corpus();
    let registry = builtin_registry();
    let recipe = fig9_style_recipe()
        .with_np(2)
        .with_shard_size(8)
        .with_memory_budget(1);
    let (expected, _) = executor_from_recipe(&recipe, &registry, true)
        .unwrap()
        .run(data.clone())
        .unwrap();
    for depth in [0usize, 1, 3] {
        let yaml = format!("{}prefetch_depth: {depth}\n", recipe.to_yaml());
        let retired = Recipe::from_yaml(&yaml).unwrap();
        assert_eq!(
            retired, recipe,
            "depth={depth}: the retired key changed the recipe"
        );
        let exec = executor_from_recipe(&retired, &registry, true).unwrap();
        let (out, report) = exec.run(data.clone()).unwrap();
        assert_eq!(out, expected, "depth={depth} diverged");
        assert!(report.spilled, "depth={depth}");
        assert!(report.peak_resident_samples <= 2 * 8, "depth={depth}");
    }
}

/// Spill spools must remove themselves: after a run with an explicit
/// `spill_dir`, the directory holds no leftover shard files or temp dirs.
#[test]
fn spill_dir_is_left_empty_after_runs() {
    let dir = unique_dir("cleanup");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exec = spill_exec(2, 8, Some(dir.clone()));
    let (out, report) = exec.run(corpus()).unwrap();
    assert!(report.spilled);
    assert!(!out.is_empty());
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "spill dir must be empty after the run, found {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed run must also clean its spools up (drop-based cleanup fires on
/// the error path too).
#[test]
fn spill_dir_is_cleaned_even_when_the_run_fails() {
    // perplexity_filter's process errors when its stat is missing; simpler:
    // a recipe whose op errors on a poison token mid-stream.
    use data_juicer::core::{DjError, Mapper, Op, Result, Sample, SampleContext};
    use std::sync::Arc;
    struct Poisoned;
    impl Mapper for Poisoned {
        fn name(&self) -> &'static str {
            "poisoned_mapper"
        }
        fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
            if sample.text().contains("poison") {
                return Err(DjError::op("poisoned_mapper", "hit poison"));
            }
            Ok(false)
        }
    }
    let dir = unique_dir("cleanup-err");
    let mut data = corpus();
    data.push(Sample::from_text("this sample is poison"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exec = Executor::new(vec![Op::Mapper(Arc::new(Poisoned))]).with_options(ExecOptions {
        num_workers: 2,
        op_fusion: false,
        trace_examples: 0,
        shard_size: Some(8),
        memory_budget: Some(1),
        spill_dir: Some(dir.clone()),
        ..ExecOptions::default()
    });
    let err = exec.run(data.clone()).unwrap_err();
    assert!(err.to_string().contains("poisoned_mapper"), "{err}");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "failed run left spill data behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Out-of-core runs persist and resume through the cache without ever
/// materializing the spilled dataset (streamed multi-frame entries).
#[test]
fn spilled_runs_cache_and_resume() {
    let cache_dir = unique_dir("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = CacheManager::new(&cache_dir, CacheMode::Cache);
    let exec = spill_exec(2, 8, None);
    let data = corpus();
    let (out1, r1) = exec.run_with_cache(data.clone(), &cache).unwrap();
    assert!(r1.spilled);
    assert_eq!(r1.resumed_steps, 0);
    let (out2, r2) = exec.run_with_cache(data, &cache).unwrap();
    assert!(r2.resumed_steps > 0, "second run must resume from cache");
    assert!(r2.ops.is_empty());
    assert_eq!(out1, out2);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The recipe-level knobs drive the executor: a YAML recipe with
/// `memory_budget`/`spill_dir` spills, and its output matches the
/// same recipe without the knobs.
#[test]
fn recipe_knobs_engage_spilling_end_to_end() {
    let spill_dir = unique_dir("recipe");
    let _ = std::fs::remove_dir_all(&spill_dir);
    std::fs::create_dir_all(&spill_dir).unwrap();
    let registry = builtin_registry();
    let plain = fig9_style_recipe().with_np(2);
    let budgeted = fig9_style_recipe()
        .with_np(2)
        .with_shard_size(8)
        .with_memory_budget(1)
        .with_spill_dir(spill_dir.to_string_lossy());
    // The knobs survive a YAML round-trip before reaching the executor.
    let budgeted = Recipe::from_yaml(&budgeted.to_yaml()).unwrap();
    let data = corpus();
    let (expected, _) = executor_from_recipe(&plain, &registry, true)
        .unwrap()
        .run(data.clone())
        .unwrap();
    let (out, report) = executor_from_recipe(&budgeted, &registry, true)
        .unwrap()
        .run(data)
        .unwrap();
    assert!(report.spilled);
    assert_eq!(out, expected);
    assert_eq!(std::fs::read_dir(&spill_dir).unwrap().count(), 0);
    let _ = std::fs::remove_dir_all(&spill_dir);
}
