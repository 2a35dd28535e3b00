//! Cache-compression ablation (DESIGN.md #5): djz vs passthrough on
//! serialized dataset bytes — the space/time trade the §6 cache compression
//! banks on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dj_store::{compress, decompress, to_bytes, Codec};
use dj_synth::{web_corpus, WebNoise};

fn bench_codecs(c: &mut Criterion) {
    let payload = to_bytes(&web_corpus(31, 400, WebNoise::default()));
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    for codec in [Codec::None, Codec::Djz] {
        let label = format!("{codec:?}");
        group.bench_function(format!("compress_{label}"), |b| {
            b.iter(|| compress(criterion::black_box(&payload), codec))
        });
        let frame = compress(&payload, codec);
        println!(
            "codec {label}: {} -> {} bytes (ratio {:.3})",
            payload.len(),
            frame.len(),
            frame.len() as f64 / payload.len() as f64
        );
        group.bench_function(format!("decompress_{label}"), |b| {
            b.iter(|| decompress(criterion::black_box(&frame)).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_codecs
}
criterion_main!(benches);
