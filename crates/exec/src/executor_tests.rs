//! Unit tests of the executor: the whole engine through its public entry
//! points, on a small noisy corpus.

use super::*;
use crate::report::TraceEvent;
use dj_core::{OpParams, OpRegistry, Value};
use dj_ops::builtin_registry;
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
    // u64::MAX pins the reference in memory whatever `DJ_MEMORY_BUDGET`
    // the host sets.
    let mut base_opts = opts(1, false, 0);
    base_opts.memory_budget = Some(u64::MAX);
    let baseline = Executor::new(pipeline(&reg)).with_options(base_opts);
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
    options.memory_budget = Some(u64::MAX);
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
fn barrier_worker_count_never_changes_output() {
    // np = 1 is the sequential reference: one hash stepper, sequential
    // clustering, one mask-apply stepper. Every np = N run — parallel
    // hash morsels, gated clustering, carried and rebalanced shards —
    // must reproduce it byte for byte.
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
