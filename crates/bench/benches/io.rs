//! Streaming-IO benchmarks: JSONL ingest (parse + shard cutting),
//! manifest-tracked egress (jsonl vs frames parts), and the full
//! file-to-file `run_io` path with fingerprint-on-ingest.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dj_config::{OpSpec, Recipe};
use dj_exec::{ExecOptions, Executor};
use dj_io::{CorpusReader, OutputFormat, ShardedWriter};
use dj_ops::builtin_registry;
use dj_store::to_jsonl;
use dj_synth::{web_corpus, WebNoise};

fn bench_io(c: &mut Criterion) {
    let data = web_corpus(23, 600, WebNoise::default());
    let jsonl = to_jsonl(&data);
    let dir = std::env::temp_dir().join(format!("dj-bench-io-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("corpus.jsonl");
    std::fs::write(&input, &jsonl).unwrap();

    let mut group = c.benchmark_group("io");
    group.throughput(Throughput::Bytes(jsonl.len() as u64));

    // Parse the corpus and cut it into shard frames — the ingest half of
    // the streaming path, minus the pipeline.
    group.bench_function("ingest_jsonl", |b| {
        b.iter(|| {
            let mut r = CorpusReader::from_files(vec![input.clone()]).unwrap();
            let mut n = 0usize;
            while let Some(shard) = r.next_shard(128).unwrap() {
                n += shard.len();
            }
            assert_eq!(n, data.len());
            n
        })
    });

    // Sharded egress: serialize + atomic-rename + manifest seal.
    let shards = data.clone().into_shards(8);
    group.bench_function("egress_jsonl", |b| {
        b.iter(|| {
            let out = dir.join("out-jsonl");
            let _ = std::fs::remove_dir_all(&out);
            let w = ShardedWriter::create(&out, OutputFormat::Jsonl).unwrap();
            for (i, s) in shards.iter().enumerate() {
                w.store_shard(i, s).unwrap();
            }
            w.finish().unwrap()
        })
    });

    // The whole file-to-file pipeline: streamed ingest through the first
    // pipeline stage, fingerprint-on-ingest, single-pass dedup barrier,
    // manifest-tracked egress.
    let ops = Recipe::new("bench-io")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 10.0)
                .with("max_len", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
        .build_ops(&builtin_registry())
        .unwrap();
    group.bench_function("run_io_end_to_end", |b| {
        b.iter(|| {
            let out = dir.join("out-run-io");
            let _ = std::fs::remove_dir_all(&out);
            let exec = Executor::new(ops.clone()).with_options(ExecOptions {
                num_workers: 2,
                op_fusion: true,
                shard_size: Some(128),
                input: Some(input.display().to_string()),
                output: Some(out),
                ..ExecOptions::default()
            });
            let (_, report) = exec.run_io().unwrap();
            assert!(report.fingerprinted_barriers >= 1);
            report.final_samples
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_io
}
criterion_main!(benches);
