//! Steady-state allocation budget of the operator hot path.
//!
//! The Fig. 8 chain (2 mappers, 5 filters) over an already-clean sample and
//! a warmed `SampleContext` may allocate only what the sample keeps: the
//! `stats` map and its keys. In particular the count must not grow with
//! the document — no copy of the text, no string per word, no table per
//! n-gram pass. This is the guard that keeps the next operator from
//! bringing `to_string()` back into `compute_stats`.
//!
//! The barrier's hash pass has the tighter budget: a fixed-width
//! deduplicator writes each sample's words into the pass's one buffer out
//! of a warmed context — no shingle string, no signature, no `Value` —
//! so a sample costs no allocation at all.
//!
//! One level up, the way out of a spool has a budget too: transcoding a
//! spilled shard to a JSONL part may allocate per *shard* and per *column*
//! (the frame, its decompressed regions, the part's bookkeeping) but never
//! per *sample* — no `Sample`, `Value` or `BTreeMap` is built on the way
//! out.
//!
//! A columnar spool → stage → spool cycle is bounded by size rather than by
//! count: a column the stage did not decode crosses as the compressed
//! region it is, so no buffer as large as that region decompressed is ever
//! made — not even when the stage dropped samples.
//!
//! The codec has the tightest budget of all: `decompress` makes exactly one
//! allocation, the declared size plus a fixed slack, and `compress` at most
//! two, its match table and its output — no buffer grows by doubling.
//!
//! Its own test binary: the counting allocator is global (the counter is
//! per thread, so the tests do not see each other).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{Dataset, Fingerprints, Op, Sample, SampleContext};
use data_juicer::io::{OutputFormat, ShardedWriter};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{
    compress, decompress, encode_columnar_frame, to_bytes, to_jsonl, Codec, ColumnarSlab,
    ShardSpool,
};
use data_juicer::synth::{web_corpus, WebNoise};
use data_juicer::text::normalize;

thread_local! {
    /// Allocator calls made by this thread. No destructor, so counting
    /// stays valid through thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Size of this thread's latest allocator request.
    static LAST_SIZE: Cell<usize> = const { Cell::new(0) };
    /// Size of this thread's largest allocator request since it was reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LAST_SIZE.try_with(|last| last.set(size));
    let _ = LARGEST.try_with(|max| max.set(max.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; counting touches only
// a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The Fig. 8 operators with the thresholds `fig8_end2end` and `djbench`
/// run them at.
fn fig8_chain() -> Vec<Op> {
    let range = |name: &str, lo: &str, min: f64, hi: &str, max: f64| {
        OpSpec::new(name).with(lo, min).with(hi, max)
    };
    Recipe::new("fig8-chain")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(range("text_length_filter", "min_len", 40.0, "max_len", 1e6))
        .then(range("word_num_filter", "min_num", 8.0, "max_num", 1e9))
        .then(range(
            "alphanumeric_ratio_filter",
            "min_ratio",
            0.25,
            "max_ratio",
            1.0,
        ))
        .then(range(
            "special_characters_filter",
            "min_ratio",
            0.0,
            "max_ratio",
            0.3,
        ))
        .then(
            range("word_repetition_filter", "min_ratio", 0.0, "max_ratio", 0.4)
                .with("rep_len", 5i64),
        )
        .build_ops(&builtin_registry())
        .expect("builtin ops")
}

/// Run the chain on one sample the way the executor does; returns the
/// allocator calls it took and whether the sample was kept.
fn run_chain(chain: &[Op], sample: &mut Sample, ctx: &mut SampleContext) -> (u64, bool) {
    let before = ALLOCATIONS.with(Cell::get);
    ctx.invalidate();
    let mut keep = true;
    for op in chain {
        match op {
            Op::Mapper(m) => {
                if m.process(sample, ctx).expect("mapper runs") {
                    ctx.invalidate();
                }
            }
            Op::Filter(f) => {
                f.compute_stats(sample, ctx).expect("stats");
                ctx.clear();
                keep &= f.process(sample).expect("decision");
            }
            Op::Deduplicator(_) => unreachable!("no barrier in the chain"),
        }
    }
    (ALLOCATIONS.with(Cell::get) - before, keep)
}

#[test]
fn clean_samples_allocate_only_their_stats() {
    let chain = fig8_chain();
    // Already-clean texts of very different sizes: single documents, and
    // fifty of them in one.
    let clean: Vec<String> = web_corpus(5, 200, WebNoise::default())
        .iter()
        .map(|s| normalize::remove_links(&normalize::normalize_whitespace(s.text())).into_owned())
        .filter(|t| t.split(' ').count() >= 20)
        .collect();
    let mut texts: Vec<String> = clean.chunks(50).map(|c| c.join("\n\n")).collect();
    texts.extend(clean.iter().take(40).cloned());
    let words = |t: &str| t.split_whitespace().count();
    let (smallest, largest) = (
        texts.iter().map(|t| words(t)).min().unwrap(),
        texts.iter().map(|t| words(t)).max().unwrap(),
    );
    assert!(largest > 50 * smallest, "{smallest} vs {largest} words");

    // Warm the context on the largest text, as a shard's first samples do.
    let mut ctx = SampleContext::new();
    let biggest = texts.iter().max_by_key(|t| t.len()).unwrap();
    run_chain(&chain, &mut Sample::from_text(biggest.as_str()), &mut ctx);

    let mut seen = std::collections::BTreeSet::new();
    for text in &texts {
        let mut sample = Sample::from_text(text.as_str());
        let (allocations, _) = run_chain(&chain, &mut sample, &mut ctx);
        assert_eq!(sample.text(), text, "sample was not clean");
        assert_eq!(sample.stats().len(), 5);
        // `stats` key, its map's node, and five stat keys.
        assert!(
            allocations <= 8,
            "{allocations} allocations for a {}-word clean sample",
            words(text)
        );
        seen.insert(allocations);
    }
    assert_eq!(
        seen.len(),
        1,
        "allocations vary with the document: {seen:?}"
    );
}

/// The hash pass of every fixed-width built-in deduplicator (exact: 2 words
/// a sample, SimHash: 1, MinHash: bands × rows), the way the barrier runs
/// it: one context, one `Fingerprints`, sample after sample. With the
/// context warmed, all that is left to allocate is the word buffer's own
/// doubling — a handful of calls for the pass, none for a sample. (MinHash
/// used to make three per sample: shingle, signature, `Value` list.)
#[test]
fn a_warmed_hash_pass_allocates_nothing_per_sample() {
    let corpus = web_corpus(17, 300, WebNoise::default());
    let biggest = corpus.iter().map(Sample::text).max_by_key(|t| t.len());
    for name in [
        "document_deduplicator",
        "document_simhash_deduplicator",
        "document_minhash_deduplicator",
    ] {
        let op = Recipe::new("hash-pass")
            .then(OpSpec::new(name))
            .build_ops(&builtin_registry())
            .expect("builtin op")
            .remove(0);
        let Op::Deduplicator(dedup) = op else {
            unreachable!("{name} is a deduplicator")
        };
        let mut ctx = SampleContext::new();
        let mut hash = |text: &str, out: &mut Fingerprints| {
            ctx.invalidate();
            out.push_with(|words| dedup.fingerprint_text(text, &mut ctx, words))
                .expect("hash runs");
        };
        hash(biggest.expect("a corpus"), &mut Fingerprints::new());

        let mut out = Fingerprints::with_capacity(corpus.len());
        let before = ALLOCATIONS.with(Cell::get);
        for sample in corpus.iter() {
            hash(sample.text(), &mut out);
        }
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(out.len(), corpus.len());
        assert!(
            allocations <= 20,
            "{name}: {allocations} allocations for {} samples, {} words",
            corpus.len(),
            out.words().len()
        );
    }
}

/// Spool → JSONL egress, per shard: load the undecoded frame, transcode
/// it (past a keep mask) into the writer's reused part buffer, commit the
/// part. Shards of 8, 64 and 512 samples must cost the same number of
/// allocations, row frames and columnar frames alike.
#[test]
fn spool_to_jsonl_egress_allocates_per_shard_not_per_sample() {
    let dir = std::env::temp_dir().join(format!("dj-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sizes = [512usize, 8, 64, 512];
    let shards: Vec<Dataset> = sizes
        .iter()
        .map(|&n| {
            let mut shard = web_corpus(n as u64, n, WebNoise::default());
            for (i, s) in shard.samples_mut().iter_mut().enumerate() {
                s.set_meta("url", format!("https://example.org/{i}"));
                s.set_meta("tags", data_juicer::core::Value::from(vec!["a", "b"]));
                s.set_stat("ratio", i as f64 / 7.0);
            }
            shard
        })
        .collect();
    for columnar in [false, true] {
        let spool_dir = dir.join(format!("spool-{columnar}"));
        let spool = if columnar {
            ShardSpool::create_columnar(&spool_dir, sizes.len(), Codec::Djz)
        } else {
            ShardSpool::create(&spool_dir, sizes.len(), Codec::Djz)
        }
        .unwrap();
        for (i, shard) in shards.iter().enumerate() {
            spool.write_shard(i, shard).unwrap();
        }
        let out_dir = dir.join(format!("out-{columnar}"));
        let writer = ShardedWriter::create(&out_dir, OutputFormat::Jsonl).unwrap();
        let mut per_shard = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            let keep: Vec<bool> = (0..shard.len()).map(|k| k % 3 != 1).collect();
            let before = ALLOCATIONS.with(Cell::get);
            let frame = spool.read(i).unwrap();
            writer
                .store_jsonl(i, |out| frame.write_jsonl(Some(&keep), out))
                .unwrap();
            per_shard.push(ALLOCATIONS.with(Cell::get) - before);
            // The part holds what a decode → mask → print would have.
            let mut kept = shard.clone();
            kept.retain_mask(&keep);
            let part = std::fs::read_to_string(out_dir.join(format!("part-{i:05}.jsonl")));
            assert_eq!(
                part.unwrap(),
                to_jsonl(&kept),
                "columnar={columnar} shard {i}"
            );
        }
        // Shard 0 warms the writer's part buffer up to the largest part.
        let steady = &per_shard[1..];
        assert!(
            steady.iter().all(|n| *n == steady[0]),
            "columnar={columnar}: allocations grow with the shard: {per_shard:?} for {sizes:?} samples"
        );
        assert!(
            steady[0] < 64,
            "columnar={columnar}: {} allocations per shard",
            steady[0]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spool → stage → spool, per shard, the way a columnar stage runs it: load
/// the slot, decode the `text` column of the samples kept so far, run the
/// stage (which rewrites text and drops 30 % of the samples), store the
/// processed shard into the next spool. The metadata column is never
/// decoded, so no allocation of the cycle may be as large as its region
/// decompressed.
#[test]
fn a_columnar_stage_cycle_never_allocates_a_passthrough_region() {
    let dir = std::env::temp_dir().join(format!("dj-alloc-cycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut shard = web_corpus(29, 400, WebNoise::default());
    for (i, s) in shard.samples_mut().iter_mut().enumerate() {
        let log = format!("fetch {i}: dns 12ms, connect 31ms, ttfb 140ms; ").repeat(60);
        s.set_meta("render_log", log);
    }
    let input = ShardSpool::create_columnar(dir.join("in"), 1, Codec::Djz).unwrap();
    let output = ShardSpool::create_columnar(dir.join("out"), 1, Codec::Djz).unwrap();
    input.write_shard(0, &shard).unwrap();
    let meta = ColumnarSlab::from_frame_bytes(&encode_columnar_frame(&shard, Codec::Djz))
        .unwrap()
        .column_raw_len("meta")
        .unwrap();
    let text: BTreeSet<String> = ["text".to_string()].into();
    // A deferred mask from an earlier barrier, and the stage's own verdicts.
    let deferred: Vec<bool> = (0..shard.len()).map(|i| i % 7 != 3).collect();
    let verdict = |i: usize| i % 10 >= 3;

    LARGEST.with(|max| max.set(0));
    let frame = input.read(0).unwrap();
    let (mut kept, _) = frame.decode(Some(&text), Some(&deferred)).unwrap();
    let verdicts: Vec<bool> = (0..kept.len()).map(verdict).collect();
    kept.retain_mask(&verdicts);
    let mut live = verdicts.iter();
    let keep: Vec<bool> = deferred
        .iter()
        .map(|d| *d && *live.next().unwrap())
        .collect();
    for s in kept.samples_mut() {
        let up = s.text().to_uppercase();
        s.set_text(up);
    }
    let (bytes, stored, passthrough) = frame
        .store_processed(&kept, Some(&text), &keep, Codec::Djz)
        .unwrap();
    output.write_frame_bytes(0, &bytes, stored).unwrap();
    let largest = LARGEST.with(Cell::get);

    assert_eq!(passthrough, meta, "the metadata column crossed whole");
    assert_eq!(stored, shard.len(), "every stored sample stays stored");
    assert!(
        (largest as u64) < meta,
        "an allocation of {largest} bytes; the passthrough region holds {meta}"
    );
    // What the next pass reads through the mask is the stage's output.
    let (out, _) = output.read(0).unwrap().decode(None, Some(&keep)).unwrap();
    assert_eq!(out.len(), kept.len());
    assert!(out
        .iter()
        .zip(kept.iter())
        .all(|(o, k)| o.text() == k.text()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The codec on payloads from empty to a shard of about a megabyte,
/// compressible and not: `compress` allocates its table and an output sized
/// for the worst case, `decompress` one buffer of the declared size plus the
/// same slack every time.
#[test]
fn the_codec_allocates_its_buffers_once() {
    let text = to_bytes(&web_corpus(23, 2000, WebNoise::default()));
    let noise: Vec<u8> = (0..300_000u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect();
    let payloads = [
        &b""[..],
        b"x",
        b"abcabcabcabcabc",
        &text[..1000],
        &text,
        &noise,
    ];
    let mut slack = std::collections::BTreeSet::new();
    for payload in payloads {
        for codec in [Codec::None, Codec::Djz] {
            let before = ALLOCATIONS.with(Cell::get);
            let frame = compress(payload, codec);
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            let budget = if codec == Codec::Djz { 2 } else { 1 };
            assert!(
                allocations <= budget,
                "{codec:?}: compress made {allocations} allocations for {} bytes",
                payload.len()
            );

            let before = ALLOCATIONS.with(Cell::get);
            let back = decompress(&frame).unwrap();
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            let size = LAST_SIZE.with(Cell::get);
            assert_eq!(back, payload);
            // (A passthrough frame's copy of nothing allocates nothing.)
            assert!(
                allocations == 1 || (codec == Codec::None && payload.is_empty()),
                "{codec:?}: decompress made {allocations} allocations for {} bytes",
                payload.len()
            );
            if codec == Codec::Djz {
                assert!(size >= payload.len(), "{size} bytes for {}", payload.len());
                slack.insert(size - payload.len());
            }
        }
    }
    assert_eq!(slack.len(), 1, "the slack varies: {slack:?}");
    assert!(slack.iter().all(|&s| s <= 64), "slack {slack:?}");
}
