//! Appendix A.2 — the cache/checkpoint space-usage model:
//! cache mode stores `(1 + M + F + 𝟙(F>0) + D) × S`, checkpoint mode peaks
//! at `3 × S`. The harness runs a real pipeline under both cache modes and
//! checks the measured disk usage against the formulas. An entry
//! compresses only the columns a value demotes from JSON text, so its
//! size stays comparable to the serialized dataset; every check is a
//! bound.

use dj_bench::section;
use dj_config::{OpSpec, Recipe};
use dj_core::OpKind;
use dj_exec::{executor_from_recipe, ExecOptions};
use dj_store::{
    cache_mode_bytes, checkpoint_mode_peak_bytes, plan_storage, CacheManager, CacheMode,
    PipelineShape, StoragePlan,
};
use dj_synth::{web_corpus, WebNoise};

fn main() {
    section("Appendix A.2: cache vs checkpoint space usage");
    // M=2 mappers, F=2 filters, D=1 dedup → cache sets = 1+2+2+1+1 = 7.
    let recipe = Recipe::new("space-model")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 1.0)
                .with("max_len", 1e9),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 1.0)
                .with("max_num", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"));
    let ops = recipe
        .build_ops(&dj_ops::builtin_registry())
        .expect("recipe valid");
    let kinds: Vec<OpKind> = ops.iter().map(|o| o.kind()).collect();
    let shape = PipelineShape::from_kinds(&kinds);
    println!(
        "pipeline: M={} F={} D={}",
        shape.mappers, shape.filters, shape.deduplicators
    );

    let data = web_corpus(
        900,
        500,
        WebNoise {
            dup_rate: 0.0,
            near_dup_rate: 0.0,
            ..WebNoise::default()
        },
    );
    let s_bytes = dj_store::to_bytes(&data).len() as u64;
    println!("serialized dataset size S = {:.2} MB", s_bytes as f64 / 1e6);

    let predicted_cache = cache_mode_bytes(shape, s_bytes);
    let predicted_ckpt = checkpoint_mode_peak_bytes(s_bytes);
    println!(
        "predicted: cache mode {:.2} MB ({}×S) | checkpoint peak {:.2} MB (3×S)",
        predicted_cache as f64 / 1e6,
        predicted_cache / s_bytes,
        predicted_ckpt as f64 / 1e6
    );

    // One root per mode: under a shared root the checkpoint run would
    // resume the cache run's entries and measure nothing.
    let root = |mode: &str| {
        let dir = std::env::temp_dir().join(format!("dj-appx-space-{mode}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (cache_dir, ckpt_dir) = (root("cache"), root("checkpoint"));

    // Cache mode: every step stored. Filters shrink the dataset, so the
    // measured bytes are a lower bound of the (1+M+F+1+D)·S worst case.
    let cache = CacheManager::new(&cache_dir, CacheMode::Cache);
    let exec = executor_from_recipe(&recipe, &dj_ops::builtin_registry(), false)
        .expect("recipe valid")
        .with_options(ExecOptions {
            num_workers: 1,
            op_fusion: false,
            shard_size: None,
            ..ExecOptions::default()
        });
    let (_, report) = exec
        .run_with_cache(data.clone(), &cache)
        .expect("pipeline runs");
    let measured_cache = cache.disk_usage().expect("disk usage readable");
    let entries = cache.entry_count().expect("entries countable");
    println!(
        "measured cache mode: {:.2} MB across {entries} entries",
        measured_cache as f64 / 1e6
    );

    // Checkpoint mode: only the last entry remains on disk.
    let ckpt = CacheManager::new(&ckpt_dir, CacheMode::Checkpoint);
    let (_, ckpt_report) = exec.run_with_cache(data, &ckpt).expect("pipeline runs");
    let measured_ckpt = ckpt.disk_usage().expect("disk usage readable");
    println!(
        "measured checkpoint mode (steady state): {:.2} MB across {} entry",
        measured_ckpt as f64 / 1e6,
        ckpt.entry_count().expect("entries countable")
    );

    // Storage planning decisions.
    for (avail, label) in [
        (predicted_cache, "exactly cache-mode budget"),
        (predicted_ckpt, "exactly 3×S"),
        (s_bytes, "only 1×S"),
    ] {
        println!(
            "available {:>8.2} MB ({label:<26}) → plan: {:?}",
            avail as f64 / 1e6,
            plan_storage(shape, s_bytes, avail)
        );
    }

    // The sharded engine checkpoints on *stage* boundaries (mapper/filter
    // runs no longer materialize intermediates), so cache mode stores one
    // set per stage — strictly less disk than the per-OP A.2 worst case.
    assert_eq!(
        entries, report.stages,
        "cache mode keeps one entry per stage"
    );
    assert!(
        entries < ops.len(),
        "stage caching stores fewer sets than per-OP caching"
    );
    assert!(
        measured_cache <= predicted_cache,
        "the per-OP formula stays an upper bound"
    );
    assert_eq!(
        (
            ckpt_report.resumed_steps,
            ckpt.entry_count().expect("entries countable")
        ),
        (0, 1),
        "the checkpoint run executes every stage and keeps its last"
    );
    assert!(
        measured_cache >= measured_ckpt * report.stages as u64,
        "cache mode stores one set per stage; checkpoint only the last"
    );
    println!(
        "stage-boundary caching: {} stage sets vs {} per-OP sets ({:.0}% disk saved vs per-OP caching)",
        report.stages,
        ops.len(),
        (1.0 - entries as f64 / ops.len() as f64) * 100.0
    );
    assert_eq!(
        plan_storage(shape, s_bytes, s_bytes),
        StoragePlan::NoPersistence
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    println!("\nshape check PASSED: measured usage within the A.2 bounds");
}
