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
//! A warmed spool cycle allocates nothing large at all: the slot files,
//! the frames built, the column bodies, the decompressed regions and the
//! codec's match table all come out of the run's buffer pool, so once the
//! first shard has sized them, a shard like it reuses every one. A runtime
//! has one pool for all its jobs, so a job's passes reuse what the job
//! before it freed.
//!
//! Ingest has a budget per *field*: a record's fields that no op reads are
//! left as JSON text in the shard's raw columns, so a line carrying them
//! allocates per sample no more than the same line without them — no key,
//! no `Value`, no string per field.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{Dataset, FieldSet, Fingerprints, Mapper, Op, Sample, SampleContext};
use data_juicer::exec::{ExecOptions, Executor, Runtime, RuntimeConfig};
use data_juicer::io::{CorpusReader, OutputFormat, ShardedWriter};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{
    compress, decompress, encode_columnar_frame, to_bytes, to_jsonl, BufferPool, Codec,
    ColumnarSlab, ShardSpool,
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
/// allocations.
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
    let spool = ShardSpool::create(dir.join("spool"), sizes.len()).unwrap();
    for (i, shard) in shards.iter().enumerate() {
        spool.write_shard(i, shard).unwrap();
    }
    let out_dir = dir.join("out");
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
        assert_eq!(part.unwrap(), to_jsonl(&kept), "shard {i}");
    }
    // Shard 0 warms the writer's part buffer up to the largest part.
    let steady = &per_shard[1..];
    assert!(
        steady.iter().all(|n| *n == steady[0]),
        "allocations grow with the shard: {per_shard:?} for {sizes:?} samples"
    );
    assert!(steady[0] < 64, "{} allocations per shard", steady[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard cut by a reader that parses only `text`: one record per line, each
/// carrying `inert` fields no op reads, and the allocations the cut took.
fn ingest_allocations(dir: &std::path::Path, lines: usize, inert: usize) -> (u64, usize) {
    let path = dir.join(format!("in-{inert}.jsonl"));
    let mut text = String::new();
    for i in 0..lines {
        text.push_str(&format!(
            "{{\"text\":\"document {i} with a few words in it\""
        ));
        for k in 0..inert {
            text.push_str(&format!(
                ",\"field{k}\":{{\"n\":[{i},{k},2.5,null],\"url\":\"https://example.org/{i}/{k}\"}}"
            ));
        }
        text.push_str("}\n");
    }
    std::fs::write(&path, text).unwrap();
    let parsed: BTreeSet<String> = ["text".to_string()].into();
    let mut reader = CorpusReader::from_files(vec![path]).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let shard = reader
        .next_split_shard(lines, Some(&parsed))
        .unwrap()
        .unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(shard.samples.len(), lines);
    assert_eq!(shard.raw.names().count(), inert);
    (allocations, shard.raw.text_len())
}

#[test]
fn an_inert_field_costs_ingest_no_allocation_per_sample() {
    let dir = std::env::temp_dir().join(format!("dj-alloc-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let lines = 2048;
    let (bare, _) = ingest_allocations(&dir, lines, 0);
    for inert in [1, 4, 16] {
        let (with, text) = ingest_allocations(&dir, lines, inert);
        assert!(text > lines * inert * 30, "{text} bytes of raw text");
        // The raw table's text and each column's name and entry list: one
        // allocation, then growth by doubling (11 times to 2048 entries) —
        // per shard and column, never per sample.
        assert!(
            with <= bare + 16 * (inert as u64 + 1),
            "{inert} inert fields: {with} allocations against {bare} for {lines} lines"
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
    let input = ShardSpool::create(dir.join("in"), 1).unwrap();
    let output = ShardSpool::create(dir.join("out"), 1).unwrap();
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
    let (bytes, stored, passthrough) = frame.store_processed(&kept, Some(&text), &keep).unwrap();
    output.write_frame(0, &bytes, stored).unwrap();
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

/// The whole life of a shard on the file path, on ten equal shards with one
/// pool shared by both spools, the way a run shares one: write the slot
/// (ingest), read and parse it and decode its text column, splice the
/// stage's output — text rewritten, 30 % of the samples dropped, every
/// other column copied — into the next spool, then read that slot back and
/// print its live samples as a JSONL part (egress). The first shard sizes
/// the pool's buffers; after it no request of the cycle reaches 64 KiB,
/// though the slots, the frames, the bodies and the regions all do.
#[test]
fn a_warmed_spool_cycle_allocates_no_large_buffer() {
    const LARGE: usize = 64 << 10;
    let dir = std::env::temp_dir().join(format!("dj-alloc-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut shard = web_corpus(31, 600, WebNoise::default());
    for (i, s) in shard.samples_mut().iter_mut().enumerate() {
        s.set_meta("url", format!("https://example.org/{i}"));
        let log = format!("fetch {i}: dns 12ms, connect 31ms, ttfb 140ms; ").repeat(40);
        s.set_meta("render_log", log);
    }
    let slab = ColumnarSlab::from_frame_bytes(&encode_columnar_frame(&shard, Codec::Djz)).unwrap();
    let (text_raw, meta_raw) = (slab.column_raw_len("text"), slab.column_raw_len("meta"));
    assert!(
        text_raw
            .zip(meta_raw)
            .is_some_and(|(t, m)| t.min(m) > 4 * LARGE as u64),
        "regions of {text_raw:?} and {meta_raw:?} bytes are too small to tell"
    );

    let pool = BufferPool::default();
    let input = ShardSpool::create_pooled(dir.join("in"), 0, pool.clone()).unwrap();
    let output = ShardSpool::create_pooled(dir.join("out"), 0, pool).unwrap();
    let writer = ShardedWriter::create(dir.join("parts"), OutputFormat::Jsonl).unwrap();
    let text: BTreeSet<String> = ["text".to_string()].into();
    let keep: Vec<bool> = (0..shard.len()).map(|i| i % 10 >= 3).collect();
    let mut expected = shard.clone();
    expected.retain_mask(&keep);
    for s in expected.samples_mut() {
        let up = s.text().to_uppercase();
        s.set_text(up);
    }
    let mut largest = Vec::new();
    for i in 0..10 {
        LARGEST.with(|max| max.set(0));
        input.write_shard(i, &shard).unwrap();
        let frame = input.read(i).unwrap();
        let (mut kept, _) = frame.decode(Some(&text), None).unwrap();
        kept.retain_mask(&keep);
        for s in kept.samples_mut() {
            let up = s.text().to_uppercase();
            s.set_text(up);
        }
        let (bytes, stored, _) = frame.store_processed(&kept, Some(&text), &keep).unwrap();
        output.write_frame(i, &bytes, stored).unwrap();
        drop(bytes);
        drop((frame, kept));
        let frame = output.read(i).unwrap();
        writer
            .store_jsonl(i, |out| frame.write_jsonl(Some(&keep), out))
            .unwrap();
        drop(frame);
        largest.push(LARGEST.with(Cell::get));
        let part = std::fs::read_to_string(dir.join("parts").join(format!("part-{i:05}.jsonl")));
        assert_eq!(part.unwrap(), to_jsonl(&expected), "shard {i}");
    }
    assert!(
        largest[0] >= LARGE,
        "the first shard sized nothing: {largest:?}"
    );
    assert!(
        largest[1..].iter().all(|n| *n < LARGE),
        "largest allocation per shard: {largest:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mapper that reads `text` and changes nothing. At every sample after
/// the first it notes the largest allocation its thread made since the
/// sample before: everything the run did between, loads and stores and
/// barrier passes included.
#[derive(Default)]
struct Probe {
    calls: AtomicUsize,
    largest: AtomicUsize,
}

impl Mapper for Probe {
    fn name(&self) -> &'static str {
        "allocation_probe_mapper"
    }

    fn process(&self, _: &mut Sample, _: &mut SampleContext) -> data_juicer::core::Result<bool> {
        let since = LARGEST.with(|max| max.replace(0));
        if self.calls.fetch_add(1, Ordering::Relaxed) > 0 {
            self.largest.fetch_max(since, Ordering::Relaxed);
        }
        Ok(false)
    }

    fn fields_read(&self) -> FieldSet {
        FieldSet::of(["text"])
    }

    fn fields_written(&self) -> FieldSet {
        FieldSet::none()
    }
}

/// Two file jobs, one after the other, on one runtime: each at `np: 1`,
/// so its passes run on the one thread the runtime gives it, each probing
/// that thread from a stage before a barrier and one after it. The first
/// job sizes the runtime's pool; every pass of the second, from its first
/// sample on, takes the buffers the first freed — the slot reads, the
/// frames built, the column bodies and the decompressed regions — and
/// allocates nothing of 64 KiB. (A shard's raw text, the field no op
/// reads, is its own allocation, under 64 KiB here.)
#[test]
fn a_second_job_on_a_runtime_takes_the_buffers_the_first_freed() {
    const LARGE: usize = 64 << 10;
    let dir = std::env::temp_dir().join(format!("dj-alloc-runtime-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut corpus = web_corpus(37, 600, WebNoise::default());
    for (i, s) in corpus.samples_mut().iter_mut().enumerate() {
        let log = format!("fetch {i}: dns 12ms, connect 31ms, ttfb 140ms; ").repeat(15);
        s.set_meta("render_log", log);
    }
    let input = dir.join("in.jsonl");
    std::fs::write(&input, to_jsonl(&corpus)).unwrap();

    let rt = Runtime::new(RuntimeConfig {
        max_jobs: 1,
        ..RuntimeConfig::default()
    });
    let job = |n: usize| {
        let probe = Arc::new(Probe::default());
        let dedup = builtin_registry()
            .build("document_deduplicator", &Default::default())
            .unwrap();
        let ops = vec![Op::Mapper(probe.clone()), dedup, Op::Mapper(probe.clone())];
        let exec = Executor::new(ops).with_options(ExecOptions {
            num_workers: 1,
            shard_size: Some(60),
            input: Some(input.display().to_string()),
            output: Some(dir.join(format!("out-{n}"))),
            ..ExecOptions::default()
        });
        rt.submit_io(exec).wait().unwrap();
        (probe.largest.load(Ordering::Relaxed), rt.pool_bytes())
    };
    let (first, sized) = job(1);
    let (second, after) = job(2);
    assert!(
        first >= LARGE,
        "the first job allocated nothing large: {first}"
    );
    assert!(
        second < LARGE,
        "the second job allocated {second} bytes at once"
    );
    assert_eq!(sized, after, "the pool grew in the second job");
    let out = |n: usize| std::fs::read_to_string(dir.join(format!("out-{n}/part-00000.jsonl")));
    assert_eq!(out(1).unwrap(), out(2).unwrap());
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
