//! Dedup-barrier bench, on corpora seeded with exact and near duplicates.
//!
//! `dedup_barrier`: the clustering step (`cluster`) of each deduplicator
//! at 1, 2 and 4 workers on 600 documents, plus MinHash at 1 and 2 workers
//! on 20 000 documents with 40 % duplicates (15 % exact, 25 % near — the
//! benchmark's `dup` corpus shape), where sorting band keys and verifying
//! their runs takes long enough to see. Fingerprints are computed once
//! outside the timer — the barrier's clustering is the section this group
//! tracks.
//!
//! `hash_lane`: the MinHash signature of every document, the portable
//! instantiation of the lane loop against the one this CPU dispatches to
//! (the same one, on a CPU without AVX2).

use criterion::{criterion_group, criterion_main, Criterion};

use dj_core::{word_spans, Dataset, Deduplicator, Fingerprints, SampleContext, Spans};
use dj_hash::{Lanes, MinHasher};
use dj_ops::{
    DocumentDeduplicator, MinHashDeduplicator, ParagraphDeduplicator, SimHashDeduplicator,
};
use dj_synth::{web_corpus, WebNoise};

fn corpus() -> Dataset {
    web_corpus(
        23,
        600,
        WebNoise {
            dup_rate: 0.15,
            near_dup_rate: 0.15,
            ..WebNoise::default()
        },
    )
}

fn dup_corpus() -> Dataset {
    web_corpus(
        23,
        20_000,
        WebNoise {
            dup_rate: 0.15,
            near_dup_rate: 0.25,
            ..WebNoise::default()
        },
    )
}

fn fingerprints(dedup: &dyn Deduplicator, data: &Dataset) -> Fingerprints {
    let mut ctx = SampleContext::new();
    let mut hashes = Fingerprints::with_capacity(data.len());
    for s in data.iter() {
        ctx.invalidate();
        hashes
            .push_with(|out| dedup.fingerprint(s, &mut ctx, out))
            .unwrap();
    }
    hashes
}

fn bench_dedup_barrier(c: &mut Criterion) {
    let data = corpus();
    let dedups: Vec<Box<dyn Deduplicator>> = vec![
        Box::new(DocumentDeduplicator::new()),
        Box::new(MinHashDeduplicator::default_config()),
        Box::new(SimHashDeduplicator::new(3).unwrap()),
        Box::new(ParagraphDeduplicator::new()),
    ];
    let mut group = c.benchmark_group("dedup_barrier");
    for dedup in &dedups {
        let hashes = fingerprints(dedup.as_ref(), &data);
        for workers in [1usize, 2, 4] {
            group.bench_function(format!("{}/np{workers}", dedup.name()), |b| {
                b.iter(|| dedup.cluster(&hashes, workers).unwrap())
            });
        }
    }
    let minhash = MinHashDeduplicator::default_config();
    let hashes = fingerprints(&minhash, &dup_corpus());
    for workers in [1usize, 2] {
        group.bench_function(format!("{}/20k-dup/np{workers}", minhash.name()), |b| {
            b.iter(|| minhash.cluster(&hashes, workers).unwrap())
        });
    }
    group.finish();
}

fn bench_hash_lane(c: &mut Criterion) {
    let data = corpus();
    let mut group = c.benchmark_group("hash_lane");
    let spans: Vec<_> = data
        .iter()
        .map(|s| {
            let mut spans = Vec::new();
            word_spans(s.text(), &mut spans);
            spans
        })
        .collect();
    for (role, lanes) in [
        ("portable", Lanes::available()[0]),
        ("dispatched", Lanes::widest()),
    ] {
        let hasher = MinHasher::with_lanes(128, 5, lanes);
        let (mut joined, mut bases, mut sig) = (Vec::new(), Vec::new(), vec![0; 128]);
        group.bench_function(format!("{role}/{}", lanes.name()), |b| {
            b.iter(|| {
                for (s, spans) in data.iter().zip(&spans) {
                    let words = Spans::new(s.text(), spans);
                    hasher.signature_into(words, &mut joined, &mut bases, &mut sig);
                    std::hint::black_box(&sig);
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_dedup_barrier, bench_hash_lane
}
criterion_main!(benches);
