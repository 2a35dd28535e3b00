//! Columnar (`DJSC`) frame micro-benchmarks: full decode vs projected
//! decode vs raw column read on a metadata-heavy shard, plus the
//! mask-filter compaction and a stage's store of a shard it thinned — the
//! per-frame costs the field-projection pushdown trades against a
//! whole-row decode.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::collections::BTreeSet;

use dj_core::Value;
use dj_store::{encode_columnar_frame, encode_shard_frame, Codec, ColumnarSlab, Frame, FrameSlab};
use dj_synth::{web_corpus, WebNoise};

/// A shard whose text is a minority share: every sample carries url,
/// headers and render-log columns an op footprint never touches.
fn metadata_heavy_shard(n: usize) -> dj_core::Dataset {
    let mut ds = web_corpus(7, n, WebNoise::default());
    for (i, s) in ds.samples_mut().iter_mut().enumerate() {
        let root = s.value_mut();
        root.set_path("url", Value::Str(format!("https://example.org/doc/{i}")))
            .expect("sample root is a map");
        root.set_path(
            "headers",
            Value::Str("content-type: text/html; charset=utf-8; server: nginx; ".repeat(10)),
        )
        .expect("sample root is a map");
        root.set_path(
            "render_log",
            Value::Str(format!("fetch {i}: dns 12ms connect 30ms ttfb 140ms; ").repeat(12)),
        )
        .expect("sample root is a map");
    }
    ds
}

fn bench_columnar(c: &mut Criterion) {
    let shard = metadata_heavy_shard(300);
    let row_frame = encode_shard_frame(&shard, Codec::Djz);
    let col_frame = encode_columnar_frame(&shard, Codec::Djz);
    let slab = ColumnarSlab::from_frame_bytes(&col_frame).expect("columnar frame parses");
    let text_cols: BTreeSet<String> = ["text", "stats"].iter().map(|s| s.to_string()).collect();
    println!(
        "shard: {} samples, row frame {} bytes, columnar frame {} bytes, \
         text column {} of {} raw bytes",
        shard.len(),
        row_frame.len(),
        col_frame.len(),
        slab.column_raw_len("text").unwrap_or(0),
        slab.total_raw_len(),
    );

    let mut group = c.benchmark_group("columnar");
    group.throughput(Throughput::Bytes(slab.total_raw_len()));

    group.bench_function("encode_columnar", |b| {
        b.iter(|| encode_columnar_frame(criterion::black_box(&shard), Codec::Djz))
    });
    group.bench_function("decode_row_full", |b| {
        b.iter(|| {
            FrameSlab::from_frame_bytes(criterion::black_box(&row_frame))
                .unwrap()
                .decode()
                .unwrap()
        })
    });
    group.bench_function("decode_columnar_full", |b| {
        b.iter(|| {
            ColumnarSlab::from_frame_bytes(criterion::black_box(&col_frame))
                .unwrap()
                .decode()
                .unwrap()
        })
    });
    // The pushdown path: only the text/stats columns leave compression.
    group.bench_function("decode_columnar_projected", |b| {
        b.iter(|| {
            ColumnarSlab::from_frame_bytes(criterion::black_box(&col_frame))
                .unwrap()
                .decode_projected(Some(&text_cols))
                .unwrap()
        })
    });
    // The dedup hash pass: borrow one column's texts, no Value decode.
    group.bench_function("read_column_texts", |b| {
        b.iter(|| {
            let region = slab.read_column("text").unwrap().expect("text present");
            region.texts_at("").unwrap().len()
        })
    });
    // A masked frame compacted on its way into a cache entry: drop half
    // the samples without decoding any value.
    let keep: Vec<bool> = (0..shard.len()).map(|i| i % 2 == 0).collect();
    group.bench_function("filter_frame_half", |b| {
        b.iter(|| {
            slab.filter_frame(criterion::black_box(&keep), Codec::Djz)
                .unwrap()
        })
    });
    // A stage's store: the text column re-encoded from the samples a
    // filter kept, 30 % of them dropped, every other column passed through.
    let frame = Frame::parse(&col_frame).expect("columnar frame parses");
    let keep: Vec<bool> = (0..shard.len()).map(|i| i % 10 >= 3).collect();
    let (kept, _) = frame
        .decode(Some(&text_cols), Some(&keep))
        .expect("decodes");
    group.bench_function("store_processed_with_drops", |b| {
        b.iter(|| {
            frame
                .store_processed(criterion::black_box(&kept), Some(&text_cols), &keep)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_columnar
}
criterion_main!(benches);
