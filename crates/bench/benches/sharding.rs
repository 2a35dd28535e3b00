//! Sharded-pipeline bench: end-to-end throughput of the Fig. 9 style
//! pipeline as worker/shard count grows, fused vs unfused — the headline
//! measurement for the shard-at-a-time engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use dj_config::{OpSpec, Recipe};
use dj_exec::{ExecOptions, Executor};
use dj_synth::{web_corpus, WebNoise};

fn recipe() -> Recipe {
    Recipe::new("sharding-bench")
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

fn bench_worker_scaling(c: &mut Criterion) {
    let ops = recipe().build_ops(&dj_ops::builtin_registry()).unwrap();
    let data = web_corpus(17, 600, WebNoise::default());
    let bytes = data.text_bytes() as u64;
    let mut group = c.benchmark_group("shard_workers");
    group.throughput(Throughput::Bytes(bytes));
    for np in [1usize, 2, 4, 8] {
        for (mode, fusion) in [("unfused", false), ("fused", true)] {
            let exec = Executor::new(ops.clone()).with_options(ExecOptions {
                num_workers: np,
                op_fusion: fusion,
                shard_size: None,
                ..ExecOptions::default()
            });
            group.bench_function(format!("np{np}_{mode}"), |b| {
                b.iter_batched(
                    || data.clone(),
                    |d| exec.run(d).unwrap(),
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_shard_size(c: &mut Criterion) {
    let ops = recipe().build_ops(&dj_ops::builtin_registry()).unwrap();
    let data = web_corpus(18, 600, WebNoise::default());
    let len = data.len();
    let mut group = c.benchmark_group("shard_size");
    group.throughput(Throughput::Elements(len as u64));
    for shards in [1usize, 4, 16, 64] {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 4,
            op_fusion: true,
            shard_size: Some(len.div_ceil(shards)),
            ..ExecOptions::default()
        });
        group.bench_function(format!("shards{shards}"), |b| {
            b.iter_batched(
                || data.clone(),
                |d| exec.run(d).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Out-of-core vs in-memory: the cost of streaming every shard through the
/// disk spool (spill + double-buffered reload per stage) relative to the
/// pure in-memory pipeline, at matching shard layouts.
fn bench_out_of_core(c: &mut Criterion) {
    let ops = recipe().build_ops(&dj_ops::builtin_registry()).unwrap();
    let data = web_corpus(19, 600, WebNoise::default());
    let len = data.len();
    let mut group = c.benchmark_group("out_of_core");
    group.throughput(Throughput::Elements(len as u64));
    for (label, budget) in [
        ("in_memory", None),
        ("spill_forced", Some(1u64)),
        ("spill_1MiB", Some(1 << 20)),
    ] {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 4,
            op_fusion: true,
            shard_size: Some(len.div_ceil(16)),
            memory_budget: budget,
            spill_dir: None,
            ..ExecOptions::default()
        });
        group.bench_function(label, |b| {
            b.iter_batched(
                || data.clone(),
                |d| exec.run(d).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_worker_scaling, bench_shard_size, bench_out_of_core
}
criterion_main!(benches);
