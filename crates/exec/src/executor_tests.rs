//! Unit tests of the executor: the whole engine through its public entry
//! points, on a small noisy corpus.

use super::*;
use crate::report::TraceEvent;
use dj_core::{OpParams, OpRegistry, Value};
use dj_io::OutputFormat;
use dj_ops::builtin_registry;
use std::path::Path;
use std::time::Duration;

fn ops(reg: &OpRegistry, names: &[(&str, OpParams)]) -> Vec<Op> {
    names
        .iter()
        .map(|(n, p)| reg.build(n, p).unwrap())
        .collect()
}

fn p(pairs: &[(&str, Value)]) -> OpParams {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn noisy_dataset() -> Dataset {
    let mut texts = vec![
        "The committee reviewed the annual report and found the analysis sound.".to_string(),
        "  The committee   reviewed the annual report and found the analysis sound.".to_string(),
        "short".to_string(),
        "buy now buy now buy now buy now buy now buy now buy now buy now".to_string(),
        "A completely different fluent document describing the budget process.".to_string(),
    ];
    for i in 0..20 {
        texts.push(format!(
            "Unique fluent document number {i} about the research methodology and results."
        ));
    }
    Dataset::from_texts(texts)
}

fn pipeline(reg: &OpRegistry) -> Vec<Op> {
    ops(
        reg,
        &[
            ("whitespace_normalization_mapper", OpParams::new()),
            (
                "text_length_filter",
                p(&[
                    ("min_len", Value::Float(20.0)),
                    ("max_len", Value::Float(10000.0)),
                ]),
            ),
            (
                "word_num_filter",
                p(&[
                    ("min_num", Value::Float(5.0)),
                    ("max_num", Value::Float(10000.0)),
                ]),
            ),
            (
                "word_repetition_filter",
                p(&[
                    ("rep_len", Value::Int(3)),
                    ("min_ratio", Value::Float(0.0)),
                    ("max_ratio", Value::Float(0.3)),
                ]),
            ),
            (
                "document_deduplicator",
                p(&[("lowercase", Value::Bool(true))]),
            ),
        ],
    )
}

fn opts(np: usize, fusion: bool, trace: usize) -> ExecOptions {
    ExecOptions {
        num_workers: np,
        op_fusion: fusion,
        trace_examples: trace,
        ..ExecOptions::default()
    }
}

fn spill_opts(np: usize, shard_size: usize, budget: u64) -> ExecOptions {
    ExecOptions {
        num_workers: np,
        op_fusion: true,
        trace_examples: 0,
        shard_size: Some(shard_size),
        memory_budget: Some(budget),
        ..ExecOptions::default()
    }
}

#[test]
fn pipeline_runs_and_reports() {
    let reg = builtin_registry();
    let exec = Executor::new(pipeline(&reg)).with_options(opts(1, false, 4));
    let (out, report) = exec.run(noisy_dataset()).unwrap();
    assert_eq!(report.initial_samples, 25);
    assert_eq!(report.final_samples, out.len());
    // "short" and the spam line removed; whitespace-variant deduped.
    assert!(out.len() <= 23);
    assert!(report.ops.iter().any(|r| r.removed > 0));
    assert!(report.ops[0].changed >= 1, "whitespace mapper edited");
    assert!(report.peak_bytes > 0);
    assert_eq!(report.stages, 2, "mapper+filters stage, dedup barrier");
    // Funnel is monotone non-increasing.
    let funnel = report.funnel();
    assert!(funnel.windows(2).all(|w| w[1].1 <= w[0].1));
}

#[test]
fn fused_and_unfused_produce_identical_output() {
    let reg = builtin_registry();
    let base = noisy_dataset();
    let unfused = Executor::new(pipeline(&reg)).with_options(opts(1, false, 0));
    let fused = Executor::new(pipeline(&reg)).with_options(opts(1, true, 0));
    let (a, ra) = unfused.run(base.clone()).unwrap();
    let (b, rb) = fused.run(base).unwrap();
    // Same surviving texts (order preserved).
    let ta: Vec<_> = a.iter().map(|s| s.text().to_string()).collect();
    let tb: Vec<_> = b.iter().map(|s| s.text().to_string()).collect();
    assert_eq!(ta, tb);
    assert_eq!(ra.fused_groups, 0);
    assert!(rb.fused_groups >= 1);
}

#[test]
fn parallel_equals_serial() {
    let reg = builtin_registry();
    let base = noisy_dataset();
    let serial = Executor::new(pipeline(&reg)).with_options(opts(1, true, 0));
    let parallel = Executor::new(pipeline(&reg)).with_options(opts(4, true, 0));
    let (a, _) = serial.run(base.clone()).unwrap();
    let (b, _) = parallel.run(base).unwrap();
    assert_eq!(
        a.iter().map(|s| s.text()).collect::<Vec<_>>(),
        b.iter().map(|s| s.text()).collect::<Vec<_>>()
    );
}

#[test]
fn shard_count_never_changes_output() {
    let reg = builtin_registry();
    let base = noisy_dataset();
    let baseline = Executor::new(pipeline(&reg)).with_options(opts(1, false, 0));
    let (expected, _) = baseline.run(base.clone()).unwrap();
    for shard_size in [1usize, 2, 7, 1000] {
        let exec = Executor::new(pipeline(&reg)).with_options(ExecOptions {
            num_workers: 3,
            op_fusion: true,
            trace_examples: 0,
            shard_size: Some(shard_size),
            ..ExecOptions::default()
        });
        let (out, report) = exec.run(base.clone()).unwrap();
        assert_eq!(out, expected, "shard_size {shard_size} diverged");
        assert!(report.shards >= 1);
    }
}

#[test]
fn spilled_run_matches_in_memory_run() {
    let reg = builtin_registry();
    let base = noisy_dataset();
    let baseline = Executor::new(pipeline(&reg)).with_options(opts(1, false, 0));
    let (expected, _) = baseline.run(base.clone()).unwrap();
    for np in [1usize, 3] {
        let exec = Executor::new(pipeline(&reg)).with_options(spill_opts(np, 4, 1));
        let (out, report) = exec.run(base.clone()).unwrap();
        assert_eq!(out, expected, "np {np} spilled run diverged");
        assert!(report.spilled, "budget of 1 byte must force spilling");
        assert!(report.peak_resident_samples > 0);
        assert!(
            report.peak_resident_samples <= np * 2 * 4,
            "np {np}: resident {} > {}",
            report.peak_resident_samples,
            np * 2 * 4
        );
    }
}

#[test]
fn large_budget_never_spills() {
    let reg = builtin_registry();
    let exec = Executor::new(pipeline(&reg)).with_options(spill_opts(2, 1000, u64::MAX));
    let (_, report) = exec.run(noisy_dataset()).unwrap();
    assert!(!report.spilled);
}

#[test]
fn trace_captures_events() {
    let reg = builtin_registry();
    let exec = Executor::new(pipeline(&reg)).with_options(opts(1, false, 8));
    let (_, report) = exec.run(noisy_dataset()).unwrap();
    let edited = report
        .ops
        .iter()
        .flat_map(|r| &r.trace)
        .any(|e| matches!(e, TraceEvent::Edited { .. }));
    let discarded = report
        .ops
        .iter()
        .flat_map(|r| &r.trace)
        .any(|e| matches!(e, TraceEvent::Discarded { .. }));
    let dup = report
        .ops
        .iter()
        .flat_map(|r| &r.trace)
        .any(|e| matches!(e, TraceEvent::Duplicate { .. }));
    assert!(edited && discarded && dup);
}

#[test]
fn spilled_trace_captures_events_too() {
    let reg = builtin_registry();
    let mut options = spill_opts(2, 4, 1);
    options.trace_examples = 8;
    options.op_fusion = false;
    let exec = Executor::new(pipeline(&reg)).with_options(options);
    let (_, report) = exec.run(noisy_dataset()).unwrap();
    assert!(report.spilled);
    let dup = report
        .ops
        .iter()
        .flat_map(|r| &r.trace)
        .any(|e| matches!(e, TraceEvent::Duplicate { .. }));
    let discarded = report
        .ops
        .iter()
        .flat_map(|r| &r.trace)
        .any(|e| matches!(e, TraceEvent::Discarded { .. }));
    assert!(dup && discarded);
}

#[test]
fn cache_resume_skips_completed_steps() {
    let reg = builtin_registry();
    let dir = std::env::temp_dir().join(format!("dj-exec-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheManager::new(&dir, 777, dj_store::CacheMode::Cache);
    let exec = Executor::new(pipeline(&reg)).with_options(opts(1, false, 0));
    let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert_eq!(r1.resumed_steps, 0);
    let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert_eq!(
        r2.resumed_steps, 5,
        "all plan steps covered by cached stages"
    );
    assert!(r2.ops.is_empty());
    assert_eq!(
        out1.iter().map(|s| s.text()).collect::<Vec<_>>(),
        out2.iter().map(|s| s.text()).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spilled_cache_entries_resume_like_in_memory_ones() {
    let reg = builtin_registry();
    let dir = std::env::temp_dir().join(format!("dj-exec-spillcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheManager::new(&dir, 778, dj_store::CacheMode::Cache);
    let exec = Executor::new(pipeline(&reg)).with_options(spill_opts(2, 4, 1));
    let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert!(r1.spilled);
    let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert_eq!(
        r2.resumed_steps,
        exec.plan().steps.len(),
        "streamed entries must resume every step"
    );
    assert!(r2.ops.is_empty());
    assert!(
        r2.spilled,
        "a budgeted resume must rehydrate into a spool, not materialize"
    );
    assert_eq!(out1, out2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_dataset_and_empty_pipeline() {
    let exec = Executor::new(vec![]);
    let (out, report) = exec.run(Dataset::new()).unwrap();
    assert!(out.is_empty());
    assert!(report.ops.is_empty());
    let reg = builtin_registry();
    let exec2 = Executor::new(pipeline(&reg));
    let (out2, _) = exec2.run(Dataset::new()).unwrap();
    assert!(out2.is_empty());
    // An empty dataset never spills, whatever the budget says.
    let exec3 = Executor::new(pipeline(&reg)).with_options(spill_opts(2, 4, 1));
    let (out3, r3) = exec3.run(Dataset::new()).unwrap();
    assert!(out3.is_empty());
    assert!(!r3.spilled);
}

#[test]
fn under_budget_resume_stays_in_memory() {
    // Multi-shard in-memory stages cache as multi-frame entries; a
    // resume under a generous budget must pull them back into memory
    // rather than downgrading the run to out-of-core.
    let reg = builtin_registry();
    let dir = std::env::temp_dir().join(format!("dj-exec-memresume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheManager::new(&dir, 779, dj_store::CacheMode::Cache);
    let mut options = opts(3, true, 0);
    options.shard_size = Some(4);
    let exec = Executor::new(pipeline(&reg)).with_options(options);
    let (out1, r1) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert!(!r1.spilled);
    let (out2, r2) = exec.run_with_cache(noisy_dataset(), &cache).unwrap();
    assert!(r2.resumed_steps > 0);
    assert!(
        !r2.spilled,
        "an under-budget resume must not downgrade to out-of-core"
    );
    assert_eq!(out1, out2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_budget_derived_spill_cut_fits_every_prefetch_depth() {
    // 1 000 samples of 100 bytes each, under a 20 kB budget.
    let (len, bytes, budget) = (1000usize, 100_000usize, 20_000u64);
    for np in [1usize, 2, 4] {
        for depth in 1..=4usize {
            let exec = Executor::new(Vec::new()).with_options(ExecOptions {
                num_workers: np,
                prefetch_depth: depth,
                ..ExecOptions::default()
            });
            let shards = exec.spill_shard_count(len, bytes, budget);
            let shard_bytes = len.div_ceil(shards) * (bytes / len);
            assert!(
                (np * depth * shard_bytes) as u64 <= budget,
                "np {np}, depth {depth}: {np} x {depth} live shards of {shard_bytes} B"
            );
        }
    }
}

#[test]
fn a_deep_prefetch_stays_inside_the_budget() {
    let reg = builtin_registry();
    let base = Dataset::from_texts((0..400).map(|i| {
        format!("Uniform fluent document {i:04} about the research methodology and its results.")
    }));
    let budget = (base.approx_bytes() / 3) as u64;
    let exec = Executor::new(pipeline(&reg)).with_options(ExecOptions {
        num_workers: 2,
        prefetch_depth: 4,
        trace_examples: 0,
        memory_budget: Some(budget),
        ..ExecOptions::default()
    });
    let (out, report) = exec.run(base).unwrap();
    assert!(report.spilled);
    assert_eq!(out.len(), 400);
    assert!(
        report.peak_resident_bytes as u64 <= budget,
        "{} resident bytes > budget {budget}",
        report.peak_resident_bytes
    );
}

/// Every cache entry a cached run saved, in stage order: file name, length
/// and FNV-1a of its bytes.
fn cache_entries(root: &Path) -> Vec<(String, usize, u64)> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)
        .unwrap()
        .flat_map(|recipe| std::fs::read_dir(recipe.unwrap().path()).unwrap())
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    entries
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect()
}

/// One cache entry's frames, each decoded and written back as a `frames`
/// output part — a row frame of the same samples, which is what earlier
/// releases saved resident shards as: the parts' concatenated length and
/// FNV-1a.
fn entry_as_row_frames(cache: &CacheManager, idx: usize, name: &str, out: &Path) -> (usize, u64) {
    let key = (idx, name.to_string());
    let (_, mut entry) = cache.latest_match(&[key]).unwrap().unwrap();
    let writer = ShardedWriter::create(out, OutputFormat::Frames).unwrap();
    let mut shard = 0;
    while let Some(sealed) = entry.next_frame().unwrap() {
        let samples = dj_store::Frame::parse(&sealed).unwrap().decode(None, None);
        writer.store_shard(shard, &samples.unwrap().0).unwrap();
        shard += 1;
    }
    let parts = writer.finish().unwrap().parts;
    let bytes: Vec<u8> = parts
        .iter()
        .flat_map(|part| std::fs::read(out.join(&part.file)).unwrap())
        .collect();
    (bytes.len(), fnv1a(&bytes))
}

/// A resident barrier leaves its keep mask on the shards, and the cache
/// save right after it compacts them where the bytes leave: each entry is
/// the one a barrier that thinned its shards on the spot saved. Every
/// eighth document repeats an earlier one, so no shard is thinned to half
/// its fill. Pinned by length and FNV-1a; a deliberate codec or frame
/// layout change re-pins them. Entries were row frames until resident
/// saves took the one spill format: the row pins stay, held by the same
/// samples written as row frames, so a re-pin cannot change what an entry
/// holds.
#[test]
fn a_resident_barrier_saves_the_cache_entries_it_always_saved() {
    const STAGE: &str = "whitespace_normalization_mapper+text_length_filter";
    const BARRIER: &str = "document_deduplicator";
    // (shard size, entries): six frames, then one. An entry: step index,
    // name, (length, FNV-1a) as saved, and as row frames.
    type Entry = (usize, &'static str, (usize, u64), (usize, u64));
    let pins: [(usize, [Entry; 2]); 2] = [
        (
            8,
            [
                (
                    0,
                    STAGE,
                    (1_678, 7_967_219_958_824_201_082),
                    (1_150, 8_340_056_087_111_528_943),
                ),
                (
                    1,
                    BARRIER,
                    (1_656, 1_623_368_697_736_730_361),
                    (1_134, 17_714_607_690_819_406_091),
                ),
            ],
        ),
        (
            1000,
            [
                (
                    0,
                    STAGE,
                    (510, 936_516_119_609_247_145),
                    (396, 2_542_646_165_673_211_883),
                ),
                (
                    1,
                    BARRIER,
                    (490, 16_130_685_773_108_368_857),
                    (382, 11_625_822_995_169_161_923),
                ),
            ],
        ),
    ];
    let reg = builtin_registry();
    let texts = (0..48).map(|i| {
        let n = if i % 8 == 7 { i - 5 } else { i };
        format!("Resident document {n} on the cached barrier path, with   spacing.")
    });
    let base = Dataset::from_texts(texts);
    let steps = ops(
        &reg,
        &[
            ("whitespace_normalization_mapper", OpParams::new()),
            ("text_length_filter", p(&[("min_len", Value::Float(10.0))])),
            ("document_deduplicator", OpParams::new()),
        ],
    );
    for (shard_size, want) in pins {
        for np in [1usize, 3] {
            let tag = format!("np {np}, shard_size {shard_size}");
            let dir = std::env::temp_dir().join(format!(
                "dj-exec-mempin-{}-{np}-{shard_size}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = CacheManager::new(dir.join("cache"), 780, dj_store::CacheMode::Cache);
            let mut options = opts(np, true, 0);
            options.shard_size = Some(shard_size);
            let exec = Executor::new(steps.clone()).with_options(options);
            let (out, report) = exec.run_with_cache(base.clone(), &cache).unwrap();
            assert!(!report.spilled, "{tag}");
            assert_eq!(out.len(), 42, "{tag}");
            let got = cache_entries(&dir.join("cache"));
            let saved: Vec<(String, usize, u64)> = want
                .iter()
                .map(|(idx, name, (len, sum), _)| (format!("{idx:04}-{name}.djc"), *len, *sum))
                .collect();
            assert_eq!(got, saved, "{tag}");
            for (idx, name, _, row) in want {
                let out = dir.join(format!("row-{idx}"));
                let got = entry_as_row_frames(&cache, idx, name, &out);
                assert_eq!(got, row, "{tag}: {name} holds other samples");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn barrier_worker_count_never_changes_output() {
    // np = 1 is the sequential reference: one hash stepper, sequential
    // clustering. Every np = N run — parallel hash morsels, gated
    // clustering, carried shards under the barrier's mask — must
    // reproduce it byte for byte.
    let reg = builtin_registry();
    let base = noisy_dataset();
    let sequential = Executor::new(pipeline(&reg)).with_options(opts(1, true, 0));
    let (expected, _) = sequential.run(base.clone()).unwrap();
    for np in [2usize, 4] {
        for shard_size in [1usize, 3, 1000] {
            let mut options = opts(np, true, 0);
            options.shard_size = Some(shard_size);
            let exec = Executor::new(pipeline(&reg)).with_options(options);
            let (out, report) = exec.run(base.clone()).unwrap();
            assert_eq!(out, expected, "np={np} shard_size={shard_size} diverged");
            assert!(report.barrier_duration > Duration::ZERO);
            assert!(report.barrier_duration <= report.total_duration);
        }
    }
}
