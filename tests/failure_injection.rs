//! Failure-injection tests: operator errors must propagate cleanly through
//! serial and parallel execution; corrupt caches must degrade to fresh
//! execution instead of failing the run.

use std::sync::Arc;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{DjError, Filter, Mapper, Op, Result, Sample, SampleContext};
use data_juicer::exec::{executor_from_recipe, ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{CacheManager, CacheMode};
use data_juicer::synth::{web_corpus, WebNoise};

/// A mapper that fails on any sample containing a trigger token.
struct FailingMapper;

impl Mapper for FailingMapper {
    fn name(&self) -> &'static str {
        "failing_mapper"
    }
    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        if sample.text().contains("poison") {
            return Err(DjError::op("failing_mapper", "hit poison sample"));
        }
        Ok(false)
    }
}

/// A filter whose compute_stats fails past a sample-count threshold.
struct FailingFilter;

impl Filter for FailingFilter {
    fn name(&self) -> &'static str {
        "failing_filter"
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        if sample.text().contains("poison") {
            return Err(DjError::op("failing_filter", "stats blew up"));
        }
        sample.set_stat("ok", 1.0);
        Ok(())
    }
    fn process(&self, _sample: &Sample) -> Result<bool> {
        Ok(true)
    }
    fn stats_key(&self) -> &'static str {
        "ok"
    }
}

fn poisoned_dataset() -> data_juicer::core::Dataset {
    let mut ds = web_corpus(1, 40, WebNoise::default());
    ds.push(Sample::from_text("this sample is poison for the pipeline"));
    ds.extend(web_corpus(2, 40, WebNoise::default()));
    ds
}

#[test]
fn mapper_error_propagates_serial_and_parallel() {
    for np in [1usize, 4] {
        let exec =
            Executor::new(vec![Op::Mapper(Arc::new(FailingMapper))]).with_options(ExecOptions {
                num_workers: np,
                op_fusion: false,
                trace_examples: 0,
                shard_size: None,
                ..ExecOptions::default()
            });
        let err = exec.run(poisoned_dataset()).unwrap_err();
        assert!(err.to_string().contains("failing_mapper"), "np={np}: {err}");
    }
}

#[test]
fn mapper_error_propagates_through_spilled_execution() {
    // The streaming (out-of-core) driver must fail fast with the same
    // clean operator error as the in-memory paths — no panic, no hang.
    for np in [1usize, 4] {
        let exec =
            Executor::new(vec![Op::Mapper(Arc::new(FailingMapper))]).with_options(ExecOptions {
                num_workers: np,
                op_fusion: false,
                trace_examples: 0,
                shard_size: Some(8),
                memory_budget: Some(1),
                spill_dir: None,
                ..ExecOptions::default()
            });
        let err = exec.run(poisoned_dataset()).unwrap_err();
        assert!(err.to_string().contains("failing_mapper"), "np={np}: {err}");
    }
}

#[test]
fn truncated_and_corrupted_spill_frames_are_clean_storage_errors() {
    use data_juicer::store::{Codec, ShardSpool};
    let dir = std::env::temp_dir().join(format!("dj-it-spill-frames-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spool = ShardSpool::create(&dir, 2, Codec::Djz).unwrap();
    let shard = web_corpus(3, 20, WebNoise::default());
    spool.write_shard(0, &shard).unwrap();
    spool.write_shard(1, &shard).unwrap();
    let path0 = dir.join("shard-00000.djs");
    let path1 = dir.join("shard-00001.djs");

    // Truncation (a torn write / mid-stage kill): detected, not read short.
    let bytes = std::fs::read(&path0).unwrap();
    std::fs::write(&path0, &bytes[..bytes.len() - 7]).unwrap();
    let err = spool.read_shard(0).unwrap_err();
    assert!(matches!(err, DjError::Storage(_)), "{err}");
    assert!(err.to_string().contains("truncated"), "{err}");

    // Bit rot: the per-frame checksum catches silent corruption.
    let mut bytes = std::fs::read(&path1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path1, &bytes).unwrap();
    let err = spool.read_shard(1).unwrap_err();
    assert!(
        err.to_string().contains("checksum") || err.to_string().contains("truncated"),
        "{err}"
    );
    drop(spool);
    assert!(!dir.exists(), "spool cleans up even after errors");
}

#[test]
fn run_restarts_cleanly_after_simulated_mid_stage_kill() {
    // A killed run leaves spill debris behind (its Drop never ran). A
    // fresh run pointed at the same spill_dir must neither read the
    // partial frames nor trip over them — every run spools into its own
    // unique subdirectory.
    let dir = std::env::temp_dir().join(format!("dj-it-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let debris = dir.join("dj-spill-99999-0");
    std::fs::create_dir_all(&debris).unwrap();
    std::fs::write(debris.join("shard-00000.djs"), b"DJSF\x20partial garbage").unwrap();
    std::fs::write(debris.join("shard-00001.djs.tmp"), b"half a frame").unwrap();

    let registry = builtin_registry();
    let recipe = Recipe::new("restart")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("document_deduplicator"));
    let ops = recipe.build_ops(&registry).unwrap();
    let data = web_corpus(11, 60, WebNoise::default());
    let baseline = Executor::new(ops.clone());
    let (expected, _) = baseline.run(data.clone()).unwrap();

    let exec = Executor::new(ops.clone()).with_options(ExecOptions {
        num_workers: 2,
        op_fusion: false,
        trace_examples: 0,
        shard_size: Some(8),
        memory_budget: Some(1),
        spill_dir: Some(dir.clone()),
        ..ExecOptions::default()
    });
    let (out, report) = exec.run(data.clone()).unwrap();
    assert!(report.spilled);
    assert_eq!(out, expected, "restart must not be polluted by debris");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filter_error_propagates_through_fused_plan() {
    let reg = builtin_registry();
    let word_filter = {
        let Op::Filter(f) = reg
            .build("word_num_filter", &data_juicer::core::OpParams::new())
            .unwrap()
        else {
            panic!("expected filter")
        };
        f
    };
    let ops = vec![Op::Filter(word_filter), Op::Filter(Arc::new(FailingFilter))];
    // Resident, and streamed from a spool.
    for memory_budget in [None, Some(1)] {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 2,
            op_fusion: true,
            trace_examples: 0,
            shard_size: Some(8),
            memory_budget,
            ..ExecOptions::default()
        });
        let err = exec.run(poisoned_dataset()).unwrap_err();
        assert!(
            err.to_string().contains("failing_filter"),
            "{memory_budget:?}: {err}"
        );
    }
}

#[test]
fn corrupt_cache_entry_falls_back_to_fresh_execution() {
    let registry = builtin_registry();
    let recipe = Recipe::new("corrupt-cache")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("document_deduplicator"));
    let data = web_corpus(9, 50, WebNoise::default());

    let dir = std::env::temp_dir().join(format!("dj-it-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheManager::new(&dir, CacheMode::Cache);

    let exec = executor_from_recipe(&recipe, &registry, false).unwrap();
    let exec = exec.with_options(ExecOptions {
        num_workers: 1,
        op_fusion: false,
        trace_examples: 0,
        shard_size: None,
        ..ExecOptions::default()
    });
    let (expected, _) = exec.run_with_cache(data.clone(), &cache).unwrap();

    // Corrupt every cache file: the run saved one per stage.
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(entries.len(), 2);
    for entry in entries {
        let p = entry.unwrap().path();
        std::fs::write(&p, b"corrupted garbage").unwrap();
    }

    // The run must still succeed (fresh execution) and match.
    let (out, report) = exec.run_with_cache(data, &cache).unwrap();
    assert_eq!(
        report.resumed_steps, 0,
        "corrupt cache must not be resumed from"
    );
    assert_eq!(
        out.iter().map(|s| s.text()).collect::<Vec<_>>(),
        expected.iter().map(|s| s.text()).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_op_in_recipe_is_a_config_error() {
    let registry = builtin_registry();
    let recipe = Recipe::new("bad").then(OpSpec::new("nonexistent_op"));
    let err = recipe.build_ops(&registry).unwrap_err();
    assert!(matches!(err, DjError::Config(_)), "{err}");
    assert_eq!(
        recipe.validate(&registry),
        vec!["nonexistent_op".to_string()]
    );
}

#[test]
fn filter_process_before_compute_stats_is_an_op_error() {
    // The executor always computes stats first; calling process directly on
    // an unprepared sample must produce a descriptive error, not a panic.
    let reg = builtin_registry();
    let Op::Filter(f) = reg
        .build("perplexity_filter", &data_juicer::core::OpParams::new())
        .unwrap()
    else {
        panic!("expected filter")
    };
    let err = f.process(&Sample::from_text("anything")).unwrap_err();
    assert!(err.to_string().contains("missing stat"), "{err}");
}
