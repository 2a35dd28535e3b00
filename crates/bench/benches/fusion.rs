//! Fusion ablation bench: the Fig. 9 pipeline with OP fusion on vs off,
//! plus context-reuse on its own (fused filters sharing one tokenization).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dj_config::{OpSpec, Recipe};
use dj_exec::{ExecOptions, Executor};
use dj_synth::{web_corpus, WebNoise};

fn word_filter_recipe() -> Recipe {
    Recipe::new("fusion-bench")
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
        .then(OpSpec::new("flagged_words_filter").with("max_ratio", 1.0))
}

fn bench_fusion(c: &mut Criterion) {
    let ops = word_filter_recipe()
        .build_ops(&dj_ops::builtin_registry())
        .unwrap();
    let data = web_corpus(11, 300, WebNoise::default());
    let mut group = c.benchmark_group("op_fusion");
    for (label, fusion) in [("unfused", false), ("fused", true)] {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 1,
            op_fusion: fusion,
            shard_size: None,
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

fn bench_parallelism(c: &mut Criterion) {
    let ops = word_filter_recipe()
        .build_ops(&dj_ops::builtin_registry())
        .unwrap();
    let data = web_corpus(12, 600, WebNoise::default());
    let mut group = c.benchmark_group("parallel_workers");
    for np in [1usize, 2, 4] {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: np,
            op_fusion: true,
            shard_size: None,
            ..ExecOptions::default()
        });
        group.bench_function(format!("np{np}"), |b| {
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
    config = Criterion::default().sample_size(15);
    targets = bench_fusion, bench_parallelism
}
criterion_main!(benches);
