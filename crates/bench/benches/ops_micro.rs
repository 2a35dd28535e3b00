//! Per-OP micro-benchmarks: throughput of representative Mappers, Filters
//! and the stats/decision split (ablation #1 of DESIGN.md — reusing
//! precomputed stats vs recomputing).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dj_bench::baselines::{matched_dj_ops, MatchedPipeline};
use dj_core::{Dataset, Op, OpParams, Sample, SampleContext, Value};
use dj_exec::{ExecOptions, Executor};
use dj_ops::builtin_registry;
use dj_synth::{web_corpus, WebNoise};

fn samples(n: usize) -> Vec<Sample> {
    web_corpus(7, n, WebNoise::default()).into_samples()
}

fn bench_mappers(c: &mut Criterion) {
    let reg = builtin_registry();
    let mut group = c.benchmark_group("mappers");
    for name in [
        "whitespace_normalization_mapper",
        "clean_links_mapper",
        "fix_unicode_mapper",
        "remove_long_words_mapper",
    ] {
        let op = reg.build(name, &OpParams::new()).unwrap();
        let dj_core::Op::Mapper(m) = op else {
            unreachable!()
        };
        group.bench_function(name, |b| {
            b.iter_batched(
                || samples(50),
                |mut data| {
                    let mut ctx = SampleContext::new();
                    for s in &mut data {
                        ctx.invalidate();
                        m.process(s, &mut ctx).unwrap();
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_filters(c: &mut Criterion) {
    let reg = builtin_registry();
    let mut group = c.benchmark_group("filters");
    let mut params = OpParams::new();
    params.insert("rep_len".into(), Value::Int(5));
    for (name, p) in [
        ("text_length_filter", OpParams::new()),
        ("word_num_filter", OpParams::new()),
        ("word_repetition_filter", params),
        ("stopwords_filter", OpParams::new()),
        ("perplexity_filter", OpParams::new()),
    ] {
        let op = reg.build(name, &p).unwrap();
        let dj_core::Op::Filter(f) = op else {
            unreachable!()
        };
        group.bench_function(name, |b| {
            b.iter_batched(
                || samples(50),
                |mut data| {
                    let mut ctx = SampleContext::new();
                    for s in &mut data {
                        ctx.invalidate();
                        f.compute_stats(s, &mut ctx).unwrap();
                        criterion::black_box(f.process(s).unwrap());
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Ablation: decision with precomputed stats vs stats+decision.
fn bench_stats_reuse(c: &mut Criterion) {
    let reg = builtin_registry();
    let op = reg
        .build("word_repetition_filter", &OpParams::new())
        .unwrap();
    let dj_core::Op::Filter(f) = op else {
        unreachable!()
    };
    let mut precomputed = samples(100);
    let mut ctx = SampleContext::new();
    for s in &mut precomputed {
        ctx.invalidate();
        f.compute_stats(s, &mut ctx).unwrap();
    }
    let mut group = c.benchmark_group("stats_decoupling");
    group.bench_function("decision_only_precomputed", |b| {
        b.iter(|| {
            for s in &precomputed {
                criterion::black_box(f.process(s).unwrap());
            }
        })
    });
    group.bench_function("compute_stats_plus_decision", |b| {
        b.iter_batched(
            || samples(100),
            |mut data| {
                let mut ctx = SampleContext::new();
                for s in &mut data {
                    ctx.invalidate();
                    f.compute_stats(s, &mut ctx).unwrap();
                    criterion::black_box(f.process(s).unwrap());
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Each Fig. 8 operator alone on a warmed context, then the whole chain as
/// the executor plans it (fused, one worker). A batch is 1 000 samples, so
/// a median in milliseconds reads as µs per sample.
fn bench_fig8_chain(c: &mut Criterion) {
    const BATCH: usize = 1000;
    // The matched Fig. 8 pipeline without its dedup barrier: the chain
    // `djbench` reports as `op.*.ns_per_sample`.
    let ops: Vec<Op> = matched_dj_ops(MatchedPipeline::default())
        .into_iter()
        .filter(|op| !matches!(op, Op::Deduplicator(_)))
        .collect();
    let mut group = c.benchmark_group("fig8_us_per_sample");
    for op in &ops {
        group.bench_function(op.name(), |b| {
            let mut ctx = SampleContext::new();
            b.iter_batched(
                || samples(BATCH),
                |mut data| {
                    for s in &mut data {
                        ctx.invalidate();
                        match op {
                            Op::Mapper(m) => {
                                criterion::black_box(m.process(s, &mut ctx).unwrap());
                            }
                            Op::Filter(f) => {
                                f.compute_stats(s, &mut ctx).unwrap();
                                criterion::black_box(f.process(s).unwrap());
                            }
                            Op::Deduplicator(_) => unreachable!("chain has no barrier"),
                        }
                    }
                    data
                },
                BatchSize::SmallInput,
            )
        });
    }
    let exec = Executor::new(ops).with_options(ExecOptions {
        num_workers: 1,
        op_fusion: true,
        shard_size: Some(BATCH),
        ..ExecOptions::default()
    });
    group.bench_function("fused_chain", |b| {
        b.iter_batched(
            || Dataset::from_samples(samples(BATCH)),
            |data| exec.run(data).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mappers, bench_filters, bench_stats_reuse, bench_fig8_chain
}
criterion_main!(benches);
