//! The traced pass: per-layer numbers for one workload.
//!
//! Spans are recorded here, in the benchmark, around calls into each
//! layer's public functions; the program itself is not instrumented.
//! Every probe runs single-threaded on the workload's own data, so a
//! layer's rate is its rate on the bytes that workload feeds it. Each probe
//! is one small function around one layer's calls, so a later benchmark
//! change can retarget it when a layer's interface moves.
//!
//! The end-to-end part is a repetition of the workload at `np: 1` (the
//! single-threaded baseline) whose wall time is split, as far as it can
//! be from outside the program, into modelled layer costs: work counted by
//! the program's `RunReport` divided by the rate a probe measured.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dj_config::{OpSpec, Recipe};
use dj_core::{parse_json, Dataset, Deduplicator, Op, SampleContext, Value};
use dj_exec::{executor_from_recipe, Executor};
use dj_io::{CorpusReader, OutputFormat, ShardedWriter};
use dj_ops::builtin_registry;
use dj_store::{
    compress, decompress, encode_columnar_frame, encode_shard_frame, to_bytes, Codec, ColumnarSlab,
    FrameSlab,
};

use crate::corpora::write_parts;
use crate::rep::{run_child, RepResult};
use crate::run::{library_job, prepare, serve_jobs, Ctx, RunSpec};
use crate::serve::Server;
use crate::stats::median;
use crate::workloads::WEB_RECIPE;

/// Samples per probe shard: the executor's default file-ingest shard.
const SHARD: usize = 1024;
/// Serialized bytes a rate probe works through, about.
const PROBE_BYTES: usize = 24_000_000;
/// The codec the executor spills with.
const CODEC: Codec = Codec::Djz;

/// The operators whose cost is reported one by one: the mappers and
/// filters of the Fig. 8 recipe (`recipes/web.yaml`), in recipe order.
#[cfg(test)]
pub const PROBED_OPS: [&str; 7] = [
    "whitespace_normalization_mapper",
    "clean_links_mapper",
    "text_length_filter",
    "word_num_filter",
    "alphanumeric_ratio_filter",
    "special_characters_filter",
    "word_repetition_filter",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Work done inside the span, as counts.
    pub items: u64,
    pub bytes: u64,
    pub failed: u64,
}

/// Spans kept in memory and written out when the pass ends.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_s: now,
            end_s: now,
            items: 0,
            bytes: 0,
            failed: 0,
        });
        id
    }

    /// Close a span with its work counts; returns its duration in seconds.
    pub fn close(&mut self, id: usize, items: u64, bytes: u64) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.end_s = now;
        span.items = items;
        span.bytes = bytes;
        span.end_s - span.start_s
    }

    pub fn failures(&self) -> u64 {
        self.spans.iter().map(|s| s.failed).sum()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_s\":{},\"end_s\":{},\"items\":{},\"bytes\":{},\"failed\":{}}}\n",
                self.workload, s.id, s.name, s.start_s, s.end_s, s.items, s.bytes, s.failed
            ));
        }
        out
    }
}

/// One prediction: the layer a workload was built to stress must dominate.
#[derive(Debug, Clone)]
pub struct Prediction {
    pub what: &'static str,
    pub share: f64,
    pub at_least: f64,
}

impl Prediction {
    pub fn pass(&self) -> bool {
        self.share >= self.at_least
    }
}

pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub prediction: Option<Prediction>,
    pub tracer: Tracer,
}

fn mbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-9)
}

/// About `PROBE_BYTES` of `data`, as every k-th shard of `SHARD` samples,
/// so each source of a mixture is represented in proportion.
fn probe_shards(data: &Dataset) -> Vec<Dataset> {
    let total = data.approx_bytes().max(1);
    let every = total.div_ceil(PROBE_BYTES).max(1);
    data.samples()
        .chunks(SHARD)
        .step_by(every)
        .map(|c| Dataset::from_samples(c.to_vec()))
        .collect()
}

/// `dj-io::reader`: open a pattern and pull shards until the corpus is dry.
fn probe_ingest(pattern: &str) -> Result<(Vec<Dataset>, u64), String> {
    let mut reader = CorpusReader::from_pattern(pattern).map_err(|e| format!("ingest: {e}"))?;
    let mut shards = Vec::new();
    while let Some(shard) = reader
        .next_shard(SHARD)
        .map_err(|e| format!("ingest: {e}"))?
    {
        shards.push(shard);
    }
    Ok((shards, reader.bytes_read()))
}

/// `dj-core::json`: parse lines already in memory.
fn probe_parse(text: &str) -> Result<u64, String> {
    let mut records = 0u64;
    for line in text.lines() {
        std::hint::black_box(parse_json(line).map_err(|e| format!("parse: {e}"))?);
        records += 1;
    }
    Ok(records)
}

/// `dj-store::shard_stream`: row frames.
fn probe_row_encode(shards: &[Dataset]) -> Vec<Vec<u8>> {
    shards
        .iter()
        .map(|s| encode_shard_frame(s, CODEC))
        .collect()
}

fn probe_row_decode(frames: &[Vec<u8>]) -> Result<Vec<Dataset>, String> {
    frames
        .iter()
        .map(|f| FrameSlab::from_frame_bytes(f).and_then(|slab| slab.decode()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("row decode: {e}"))
}

/// `dj-store::columnar`: columnar frames, decoding only `text`.
fn probe_col_encode(shards: &[Dataset]) -> Vec<Vec<u8>> {
    shards
        .iter()
        .map(|s| encode_columnar_frame(s, CODEC))
        .collect()
}

/// Returns the projected shards and the (decoded, total) raw bytes.
fn probe_col_decode_text(frames: &[Vec<u8>]) -> Result<(Vec<Dataset>, u64, u64), String> {
    let text: BTreeSet<String> = ["text".to_string()].into();
    let (mut out, mut decoded, mut total) = (Vec::new(), 0u64, 0u64);
    for f in frames {
        let slab = ColumnarSlab::from_frame_bytes(f).map_err(|e| format!("col decode: {e}"))?;
        let (shard, bytes) = slab
            .decode_projected(Some(&text))
            .map_err(|e| format!("col decode: {e}"))?;
        decoded += bytes;
        total += slab.total_raw_len();
        out.push(shard);
    }
    Ok((out, decoded, total))
}

/// `dj-store::codec` on serialized shards.
fn probe_compress(payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    payloads.iter().map(|p| compress(p, CODEC)).collect()
}

fn probe_decompress(frames: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, String> {
    frames
        .iter()
        .map(|f| decompress(f))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("decompress: {e}"))
}

/// `dj-ops` through `Executor::run`: a recipe of the given operators at
/// `np: 1` in a single shard, so `OpReport::duration` is their whole time.
fn ops_executor(ops: &[OpSpec], samples: usize) -> Result<Executor, String> {
    let mut recipe = Recipe::new("probe")
        .with_np(1)
        .with_shard_size(samples.max(1));
    for op in ops {
        recipe = recipe.then(op.clone());
    }
    executor_from_recipe(&recipe, &builtin_registry(), true).map_err(|e| format!("probe: {e}"))
}

/// Run `exec` on `data` inside a span; returns the span's seconds and the
/// samples kept. The program's own per-op clock must agree with the span
/// around the call, or one of the two is not measuring the operators.
fn probe_ops(
    tr: &mut Tracer,
    parent: usize,
    name: &str,
    exec: &Executor,
    data: Dataset,
) -> Result<(f64, usize), String> {
    let n = data.len() as u64;
    let id = tr.open(name, Some(parent));
    let (out, report) = exec.run(data).map_err(|e| format!("{name}: {e}"))?;
    let s = tr.close(id, n, 0);
    let reported: f64 = report.ops.iter().map(|o| o.duration.as_secs_f64()).sum();
    if reported > s || (s > 0.05 && reported < 0.5 * s) {
        eprintln!("djbench: {name}: span {s:.4} s but OpReport::duration says {reported:.4} s");
    }
    Ok((s, out.len()))
}

/// `dj-hash` through a deduplicator: one fingerprint per sample.
fn probe_hash(dedup: &dyn Deduplicator, data: &Dataset) -> Result<Vec<Value>, String> {
    data.iter()
        .map(|s| dedup.compute_hash(s, &mut SampleContext::new()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("barrier hash: {e}"))
}

type Dedups = Vec<Arc<dyn Deduplicator>>;

/// The mappers and filters of a recipe, and its deduplicators.
fn split_recipe(body: &str) -> Result<(Vec<OpSpec>, Dedups), String> {
    let recipe = Recipe::from_yaml(body).map_err(|e| format!("recipe: {e}"))?;
    let built = recipe
        .build_ops(&builtin_registry())
        .map_err(|e| format!("recipe: {e}"))?;
    let mut chain = Vec::new();
    let mut dedups = Vec::new();
    for (spec, op) in recipe.process.iter().zip(built) {
        match op {
            Op::Deduplicator(d) => dedups.push(d),
            _ => chain.push(spec.clone()),
        }
    }
    Ok((chain, dedups))
}

/// `dj-io::writer`: serialize shards to JSONL text.
fn probe_serialize(shards: &[Dataset]) -> u64 {
    let mut buf = String::new();
    let mut bytes = 0u64;
    for s in shards {
        buf.clear();
        dj_store::write_jsonl_into(s, &mut buf);
        bytes += buf.len() as u64;
        std::hint::black_box(&buf);
    }
    bytes
}

/// `dj-io::writer`: manifest-tracked parts, serialization included.
fn probe_write(shards: &[Dataset], dir: &Path) -> Result<u64, String> {
    let writer =
        ShardedWriter::create(dir, OutputFormat::Jsonl).map_err(|e| format!("egress: {e}"))?;
    for (i, s) in shards.iter().enumerate() {
        writer
            .store_shard(i, s)
            .map_err(|e| format!("egress: {e}"))?;
    }
    let manifest = writer.finish().map_err(|e| format!("egress: {e}"))?;
    Ok(manifest.total_bytes)
}

/// Sum of the repetitions of a workload's jobs, run one after another.
fn sum_reps(reps: &[RepResult]) -> RepResult {
    let mut sum = RepResult::default();
    for r in reps {
        sum.wall_s += r.wall_s;
        sum.cpu_s += r.cpu_s;
        sum.samples_in += r.samples_in;
        sum.samples_out += r.samples_out;
        sum.ingest_s += r.ingest_s;
        sum.barrier_s += r.barrier_s;
        sum.egress_s += r.egress_s;
        sum.ingest_bytes += r.ingest_bytes;
        sum.egress_bytes += r.egress_bytes;
        sum.resident_mb = sum.resident_mb.max(r.resident_mb);
        sum.rss_mb = sum.rss_mb.max(r.rss_mb);
    }
    sum
}

/// Run the traced pass of one workload.
pub fn run_traced(ctx: &Ctx, spec: &RunSpec) -> Result<Traced, String> {
    let w = spec.workload;
    let dir = ctx.scratch.join("trace");
    let tmp = ctx.tmp();
    let _ = std::fs::remove_dir_all(&dir);
    let inputs = prepare(spec, &dir, true)?;

    let mut tr = Tracer::new(w.name);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut attempted = 0u64;
    let root = tr.open("trace", None);

    // The data every rate probe works on: a proportional sample of all of
    // the workload's inputs, also written out for the reader probe.
    // Each input contributes up to PROBE_BYTES, so several are thinned out.
    let sample: Vec<Dataset> = inputs
        .iter()
        .flat_map(|i| probe_shards(&i.data))
        .step_by(inputs.len())
        .collect();
    let flat = Dataset::from_shards(sample.clone());
    let (probe_files, probe_file_bytes) =
        write_parts(&flat, &dir, "probe", 1).map_err(|e| format!("probe file: {e}"))?;
    let samples = flat.len() as u64;

    // dj-io::reader (reads and parses), then dj-core::json alone.
    let layers = tr.open("layers", Some(root));
    let id = tr.open("io.ingest", Some(layers));
    let (read_back, bytes_read) = probe_ingest(&format!("{}/probe-?.jsonl", dir.display()))?;
    let ingest_s = tr.close(id, samples, bytes_read);
    attempted += 1;
    if bytes_read != probe_file_bytes || Dataset::from_shards(read_back) != flat {
        tr.spans[id].failed += 1;
    }
    m.insert("io.ingest_mbps".into(), mbps(bytes_read, ingest_s));

    let text = std::fs::read_to_string(&probe_files[0]).map_err(|e| format!("probe file: {e}"))?;
    let id = tr.open("json.parse", Some(layers));
    let parsed = probe_parse(&text)?;
    let parse_s = tr.close(id, parsed, text.len() as u64);
    attempted += 1;
    if parsed != samples {
        tr.spans[id].failed += 1;
    }
    m.insert("json.parse_mbps".into(), mbps(text.len() as u64, parse_s));
    drop(text);

    // dj-store: row frames, columnar frames, codec. Rates are per byte of
    // the JSONL form of the data, so they compare with the reader's.
    let id = tr.open("store.row.encode", Some(layers));
    let row_frames = probe_row_encode(&sample);
    let s = tr.close(id, samples, probe_file_bytes);
    m.insert("store.row.encode_mbps".into(), mbps(probe_file_bytes, s));
    let id = tr.open("store.row.decode", Some(layers));
    let decoded = probe_row_decode(&row_frames)?;
    let s = tr.close(id, samples, probe_file_bytes);
    m.insert("store.row.decode_mbps".into(), mbps(probe_file_bytes, s));
    attempted += 2;
    if decoded != sample {
        tr.spans[id].failed += 1;
    }
    drop((row_frames, decoded));

    let id = tr.open("store.col.encode", Some(layers));
    let col_frames = probe_col_encode(&sample);
    let s = tr.close(id, samples, probe_file_bytes);
    m.insert("store.col.encode_mbps".into(), mbps(probe_file_bytes, s));
    let id = tr.open("store.col.decode_text", Some(layers));
    let (projected, col_decoded, col_total) = probe_col_decode_text(&col_frames)?;
    let s = tr.close(id, samples, col_decoded);
    m.insert(
        "store.col.decode_text_mbps".into(),
        mbps(probe_file_bytes, s),
    );
    m.insert(
        "store.col.decoded_share".into(),
        col_decoded as f64 / col_total.max(1) as f64,
    );
    attempted += 2;
    let same_text = projected
        .iter()
        .flat_map(|d| d.iter())
        .map(|s| s.text())
        .eq(flat.iter().map(|s| s.text()));
    if !same_text {
        tr.spans[id].failed += 1;
    }
    drop((col_frames, projected));

    let payloads: Vec<Vec<u8>> = sample.iter().map(to_bytes).collect();
    let raw: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    let id = tr.open("codec.compress", Some(layers));
    let packed = probe_compress(&payloads);
    let s = tr.close(id, payloads.len() as u64, raw);
    m.insert("codec.compress_mbps".into(), mbps(raw, s));
    let packed_bytes: u64 = packed.iter().map(|p| p.len() as u64).sum();
    m.insert(
        "codec.ratio".into(),
        raw as f64 / packed_bytes.max(1) as f64,
    );
    let id = tr.open("codec.decompress", Some(layers));
    let unpacked = probe_decompress(&packed)?;
    let s = tr.close(id, packed.len() as u64, raw);
    m.insert("codec.decompress_mbps".into(), mbps(raw, s));
    attempted += 2;
    if unpacked != payloads {
        tr.spans[id].failed += 1;
    }
    drop((payloads, packed, unpacked));

    // dj-io::writer.
    let id = tr.open("egress.serialize", Some(layers));
    let serialized = probe_serialize(&sample);
    let s = tr.close(id, samples, serialized);
    m.insert("egress.serialize_mbps".into(), mbps(serialized, s));
    let id = tr.open("egress.write", Some(layers));
    let written = probe_write(&sample, &dir.join("probe-out"))?;
    let write_s = tr.close(id, samples, written);
    m.insert("egress.write_mbps".into(), mbps(written, write_s));
    attempted += 2;
    if written != serialized || serialized != probe_file_bytes {
        tr.spans[id].failed += 1;
    }
    drop(sample);

    // dj-ops: the Fig. 8 operators one by one on the pooled sample.
    let ops = tr.open("ops", Some(layers));
    for op in split_recipe(WEB_RECIPE)?.0 {
        let exec = ops_executor(std::slice::from_ref(&op), flat.len())?;
        let (s, kept) = probe_ops(
            &mut tr,
            ops,
            &format!("op.{}", op.name),
            &exec,
            flat.clone(),
        )?;
        attempted += 1;
        let per_sample = s * 1e9 / samples.max(1) as f64;
        m.insert(format!("op.{}.ns_per_sample", op.name), per_sample);
        m.insert(
            format!("op.{}.keep_ratio", op.name),
            kept as f64 / samples.max(1) as f64,
        );
    }
    drop(flat);

    // Then, per input, what its own recipe costs: the chain of mappers and
    // filters with fusion as the executor plans it (on a sample), and every
    // deduplicator's hashing and clustering (on the whole input: clustering
    // cost and the duplicate share depend on how many documents there are
    // to collide with). Busy seconds are scaled to the input's size.
    let (mut ops_busy, mut hash_busy, mut cluster_busy) = (0.0, 0.0, 0.0);
    let (mut dup_dropped, mut total_samples) = (0usize, 0usize);
    for input in &inputs {
        let n = input.data.len();
        total_samples += n;
        let (chain, dedups) = split_recipe(input.tenant.recipe)?;
        let own = Dataset::from_shards(probe_shards(&input.data));
        let exec = ops_executor(&chain, own.len())?;
        let probed = own.len().max(1) as f64;
        let name = format!("op.chain.{}", input.tenant.label);
        let (s, _) = probe_ops(&mut tr, ops, &name, &exec, own)?;
        ops_busy += s / probed * n as f64;
        attempted += 1;
        for dedup in dedups {
            let id = tr.open("barrier.hash", Some(layers));
            let hashes = probe_hash(dedup.as_ref(), &input.data)?;
            hash_busy += tr.close(id, n as u64, input.data.text_bytes() as u64);
            let id = tr.open("barrier.cluster", Some(layers));
            let mask = dedup
                .keep_mask_parallel(n, &hashes, 1)
                .map_err(|e| format!("barrier cluster: {e}"))?;
            cluster_busy += tr.close(id, n as u64, 0);
            attempted += 2;
            if mask.len() != n {
                tr.spans[id].failed += 1;
            }
            dup_dropped += mask.iter().filter(|keep| !**keep).count();
        }
    }
    tr.close(ops, 0, 0);
    tr.close(layers, 0, 0);
    let per_sample = 1e9 / total_samples.max(1) as f64;
    m.insert("op.chain.ns_per_sample".into(), ops_busy * per_sample);
    m.insert("barrier.hash_ns_per_sample".into(), hash_busy * per_sample);
    m.insert("barrier.cluster_s".into(), cluster_busy);
    m.insert(
        "barrier.dup_share".into(),
        dup_dropped as f64 / total_samples.max(1) as f64,
    );

    // dj-exec::runtime through `dj serve`: each job alone, then all of the
    // workload's jobs together (one job, for a solo workload: the ratio
    // then shows how well the service repeats itself).
    let serve = tr.open("serve", Some(root));
    let mut server = Server::spawn(&ctx.dj, &tmp)?;
    server.handshake()?;
    let (outs, submits) = serve_jobs(&inputs, &dir, "serve")?;
    let clear = || outs.iter().for_each(|o| drop(std::fs::remove_dir_all(o)));
    let mut accepts = Vec::new();
    let mut solo = Vec::new();
    for cmd in &submits {
        clear();
        let id = tr.open("serve.solo", Some(serve));
        let job = server.round(std::slice::from_ref(cmd))?.jobs.remove(0);
        tr.close(id, 1, 0);
        attempted += 1;
        if job.result.is_err() {
            tr.spans[id].failed += 1;
        }
        accepts.push(job.accept_s);
        solo.push((job.latency_s, job.result.ok()));
    }
    clear();
    let id = tr.open("serve.together", Some(serve));
    let round = server.round(&submits)?;
    tr.close(id, submits.len() as u64, 0);
    let mut slowdowns = Vec::new();
    for (job, (solo_s, solo_out)) in round.jobs.iter().zip(&solo) {
        attempted += 1;
        if job.result.as_ref().ok() != solo_out.as_ref() || solo_out.is_none() {
            tr.spans[id].failed += 1;
        }
        accepts.push(job.accept_s);
        slowdowns.push(job.latency_s / solo_s.max(1e-9));
    }
    clear();
    server.shutdown()?;
    tr.close(serve, 0, 0);
    m.insert("serve.accept_s".into(), median(&accepts));
    m.insert("serve.slowdown".into(), median(&slowdowns));

    // dj-exec::executor: the workload itself at np: 1, each job in a
    // process of its own. Last, when the files written above have settled;
    // the traced repetition sits between two untraced ones, so a drift of
    // the machine cancels out of the overhead.
    let jobs = inputs
        .iter()
        .map(|input| library_job(input, w.shape, 1, &dir, "np1"))
        .collect::<Result<Vec<_>, _>>()?;
    let run_jobs = || -> Result<RepResult, String> {
        let mut reps = Vec::new();
        for job in &jobs {
            let _ = std::fs::remove_dir_all(&job.out);
            reps.push(run_child(&ctx.exe, &tmp, job)?);
        }
        Ok(sum_reps(&reps))
    };
    let before = run_jobs()?;
    let id = tr.open("exec.e2e_np1", Some(root));
    let np1 = run_jobs()?;
    tr.close(id, np1.samples_in as u64, np1.ingest_bytes);
    let after = run_jobs()?;
    attempted += 3;
    if np1.samples_out != before.samples_out || np1.samples_out != after.samples_out {
        tr.spans[id].failed += 1;
    }
    let untraced = (before.wall_s + after.wall_s) / 2.0;
    m.insert(
        "trace.overhead_share".into(),
        (np1.wall_s - untraced) / untraced,
    );
    m.insert(
        "exec.wall_np1_s".into(),
        median(&[before.wall_s, np1.wall_s, after.wall_s]),
    );
    let cpu = median(&[before.cpu_s, np1.cpu_s, after.cpu_s]).max(1e-9);
    m.insert("exec.cpu_np1_s".into(), cpu);
    m.insert("exec.ingest_s".into(), np1.ingest_s);
    m.insert("exec.barrier_s".into(), np1.barrier_s);
    m.insert("exec.egress_s".into(), np1.egress_s);
    m.insert("exec.peak_resident_mb".into(), np1.resident_mb);

    // Modelled split of the np: 1 processor time: work the program counted
    // ÷ the rate a probe measured. What is left is frames, codec, spool
    // files, scheduling and glue, which cannot be told apart from outside.
    let ops_share = ops_busy / cpu;
    let barrier_share = (hash_busy + cluster_busy) / cpu;
    let reader_share = np1.ingest_bytes as f64 / 1e6 / m["io.ingest_mbps"] / cpu;
    let egress_share = np1.egress_bytes as f64 / 1e6 / m["egress.write_mbps"] / cpu;
    m.insert("exec.ops_share".into(), ops_share);
    m.insert("exec.barrier_share".into(), barrier_share);
    m.insert("exec.reader_share".into(), reader_share);
    m.insert("exec.egress_share".into(), egress_share);
    m.insert(
        "exec.unattributed_share".into(),
        1.0 - ops_share - barrier_share - reader_share - egress_share,
    );
    let prediction = match w.name {
        "web-inmem" => Some(("ops", ops_share, 0.70)),
        // The barrier phase as the program clocks it (hashing, clustering,
        // mask apply, shard rebalancing); nothing is spilled in this shape,
        // so the phase holds no store work.
        "dup-inmem" => Some((
            "barrier phase (RunReport::barrier_duration)",
            np1.barrier_s / np1.wall_s.max(1e-9),
            0.70,
        )),
        "web-file" => Some((
            "ingest+store+egress (all but ops and barrier)",
            1.0 - ops_share - barrier_share,
            0.40,
        )),
        "meta-file-col" => Some((
            "store+codec+egress (all but ops, barrier and reader)",
            1.0 - ops_share - barrier_share - reader_share,
            0.50,
        )),
        _ => None,
    }
    .map(|(what, share, at_least)| Prediction {
        what,
        share,
        at_least,
    });
    tr.close(root, 0, 0);

    let _ = std::fs::remove_dir_all(&dir);
    let failed = tr.failures();
    Ok(Traced {
        metrics: m,
        attempted,
        failed,
        prediction,
        tracer: tr,
    })
}

/// Write spans as one JSON object per line.
pub fn write_trace(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        f.write_all(t.to_jsonl().as_bytes())?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpora::Corpus;

    #[test]
    fn spans_nest_and_serialize_one_json_object_per_line() {
        let mut tr = Tracer::new("t");
        let root = tr.open("root", None);
        let a = tr.open("a", Some(root));
        assert!(tr.close(a, 1, 2) >= 0.0);
        tr.close(root, 0, 0);
        tr.spans[a].failed = 1;
        assert_eq!(tr.failures(), 1);
        let lines: Vec<_> = tr
            .to_jsonl()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get_path("workload").unwrap().as_str(), Some("t"));
        assert_eq!(lines[1].get_path("parent").unwrap().as_int(), Some(0));
        assert_eq!(lines[1].get_path("bytes").unwrap().as_int(), Some(2));
    }

    #[test]
    fn probe_sample_is_proportional_and_bounded() {
        let ds = Corpus::Web.generate(1, 3000);
        let shards = probe_shards(&ds);
        assert!(!shards.is_empty());
        assert!(shards.iter().all(|s| s.len() <= SHARD));
        let kept: usize = shards.iter().map(Dataset::len).sum();
        assert!(kept <= ds.len());
    }

    #[test]
    fn recipes_split_into_chain_and_deduplicators() {
        let (chain, dedups) = split_recipe(WEB_RECIPE).unwrap();
        let names: Vec<&str> = chain.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, PROBED_OPS);
        assert_eq!(dedups.len(), 1);
        assert_eq!(dedups[0].name(), "document_deduplicator");
        let (chain, dedups) = split_recipe(crate::workloads::META_RECIPE).unwrap();
        assert_eq!(chain.len(), 5);
        let names: Vec<&str> = dedups.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            ["document_deduplicator", "document_simhash_deduplicator"]
        );
    }

    #[test]
    fn frame_probes_round_trip() {
        let ds = Corpus::Meta.generate(2, 200);
        let shards = probe_shards(&ds);
        let rows = probe_row_decode(&probe_row_encode(&shards)).unwrap();
        assert_eq!(rows, shards);
        let (projected, decoded, total) =
            probe_col_decode_text(&probe_col_encode(&shards)).unwrap();
        assert!(decoded < total / 4, "text is a small share of meta rows");
        assert_eq!(
            projected[0].get(0).unwrap().text(),
            ds.get(0).unwrap().text()
        );
    }
}
