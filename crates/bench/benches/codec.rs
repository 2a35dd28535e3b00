//! Cache-compression ablation (DESIGN.md #5): djz vs passthrough on
//! serialized dataset bytes — the space/time trade the §6 cache compression
//! banks on — and the two checksums over the same bytes.
//!
//! Two payloads: 400 web documents (text only), and 100 documents carrying
//! about ten times their text in crawl metadata (URL, response headers, a
//! fetch log: half fixed boilerplate, half per-document values), the shape
//! of `djbench`'s `meta-file-col`. The `checksum` group times `fnv1a`
//! (manifest parts, cache keys) against `checksum64` (frame envelopes, `DJSC`
//! regions).

use std::fmt::Write;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dj_core::{Dataset, Value};
use dj_hash::{checksum64, fnv1a};
use dj_store::{compress, decompress, to_bytes, Codec};
use dj_synth::{web_corpus, WebNoise};

/// `web_corpus` documents with crawl metadata about ten times their text.
fn metadata_heavy(docs: usize) -> Dataset {
    let mut ds = web_corpus(37, docs, WebNoise::default());
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for (i, s) in ds.samples_mut().iter_mut().enumerate() {
        let url = format!("https://host{}.example.org/doc/{i}", next(5000));
        let mut headers = String::new();
        for k in 0..24 {
            let _ = write!(
                headers,
                "x-cache-node-{k}: HIT from edge-{}; etag-{k}: \"{:016x}\"; \
                 cache-control: public, max-age={}; ",
                next(64),
                next(u64::MAX),
                next(86_400)
            );
        }
        let mut log = String::new();
        for k in 0..48 {
            let _ = write!(
                log,
                "fetch {i} step {k}: took {} us at offset {}; ",
                next(250_000),
                next(1_000_000)
            );
        }
        for (key, value) in [("url", url), ("headers", headers), ("render_log", log)] {
            s.value_mut()
                .set_path(key, Value::Str(value))
                .expect("a sample's root is a map");
        }
    }
    ds
}

fn bench_codecs(c: &mut Criterion) {
    let payloads = [
        ("web", to_bytes(&web_corpus(31, 400, WebNoise::default()))),
        ("meta", to_bytes(&metadata_heavy(100))),
    ];
    for (name, payload) in &payloads {
        let mut group = c.benchmark_group(format!("codec_{name}"));
        group.throughput(Throughput::Bytes(payload.len() as u64));
        for codec in [Codec::None, Codec::Djz] {
            let label = format!("{codec:?}");
            group.bench_function(format!("compress_{label}"), |b| {
                b.iter(|| compress(criterion::black_box(payload), codec))
            });
            let frame = compress(payload, codec);
            println!(
                "codec {name} {label}: {} -> {} bytes (ratio {:.3})",
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

    let (_, payload) = &payloads[1];
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("fnv1a", |b| b.iter(|| fnv1a(criterion::black_box(payload))));
    group.bench_function("checksum64", |b| {
        b.iter(|| checksum64(criterion::black_box(payload)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_codecs
}
criterion_main!(benches);
