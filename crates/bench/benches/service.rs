//! Service-runtime bench: N concurrent jobs submitted through one
//! persistent `Runtime`, against the same N jobs run back-to-back solo.
//! The concurrent case shares the worker pool via fair shard scheduling;
//! the group reports aggregate throughput, and a direct measurement pass
//! prints per-job p50/p99 latency (the `Data-Juicer-serve` row in
//! `BENCH_exec.json` is produced by the fig8 harness from the same
//! construction).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dj_config::{OpSpec, Recipe};
use dj_core::faults::{self, ErrKind, FaultPlan};
use dj_core::Dataset;
use dj_exec::{ExecOptions, Executor, RetryPolicy, Runtime, RuntimeConfig};
use dj_synth::{web_corpus, WebNoise};

fn recipe() -> Recipe {
    Recipe::new("service-bench")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 10.0)
                .with("max_len", 1e9),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 3.0)
                .with("max_num", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
}

fn exec(np: usize) -> Executor {
    let ops = recipe().build_ops(&dj_ops::builtin_registry()).unwrap();
    Executor::new(ops).with_options(ExecOptions {
        num_workers: np,
        op_fusion: true,
        shard_size: Some(64),
        ..ExecOptions::default()
    })
}

fn tenant_corpora(jobs: usize, docs_each: usize) -> Vec<Dataset> {
    (0..jobs)
        .map(|i| web_corpus(900 + i as u64, docs_each, WebNoise::default()))
        .collect()
}

/// Aggregate throughput: N tenants' recipes finishing through one shared
/// runtime versus the same recipes run one after another.
fn bench_concurrent_vs_serial(c: &mut Criterion) {
    const JOBS: usize = 4;
    const DOCS: usize = 300;
    let corpora = tenant_corpora(JOBS, DOCS);
    let total: usize = corpora.iter().map(Dataset::len).sum();

    let mut group = c.benchmark_group("service");
    group.throughput(Throughput::Elements(total as u64));
    group.sample_size(10);

    group.bench_function(format!("serial_{JOBS}jobs"), |b| {
        b.iter(|| {
            for ds in &corpora {
                exec(2).run(ds.clone()).unwrap();
            }
        })
    });

    group.bench_function(format!("concurrent_{JOBS}jobs"), |b| {
        b.iter(|| {
            let rt = Runtime::new(RuntimeConfig {
                max_jobs: JOBS,
                memory_budget: None,
                ..RuntimeConfig::default()
            });
            let handles: Vec<_> = corpora
                .iter()
                .map(|ds| rt.submit(exec(2), ds.clone()))
                .collect();
            for h in handles {
                h.wait().unwrap();
            }
        })
    });

    group.finish();
}

/// Per-job latency under multi-tenant load: submit N jobs at once,
/// record each job's submit-to-done wall time, print p50/p99 and the
/// aggregate samples/sec across the fleet.
fn bench_latency_distribution(c: &mut Criterion) {
    const JOBS: usize = 4;
    const ROUNDS: usize = 8;
    let corpora = tenant_corpora(JOBS, 300);
    let total: usize = corpora.iter().map(Dataset::len).sum();

    let mut group = c.benchmark_group("service_latency");
    group.sample_size(2);
    group.bench_function(format!("p50_p99_{JOBS}jobs"), |b| {
        b.iter(|| {
            let rt = Runtime::new(RuntimeConfig {
                max_jobs: JOBS,
                memory_budget: None,
                ..RuntimeConfig::default()
            });
            let mut latencies = Vec::with_capacity(JOBS * ROUNDS);
            let mut agg_seconds = 0.0f64;
            for _ in 0..ROUNDS {
                let t0 = Instant::now();
                let handles: Vec<_> = corpora
                    .iter()
                    .map(|ds| (Instant::now(), rt.submit(exec(2), ds.clone())))
                    .collect();
                for (submitted, h) in handles {
                    h.wait().unwrap();
                    latencies.push(submitted.elapsed().as_secs_f64());
                }
                agg_seconds += t0.elapsed().as_secs_f64();
            }
            latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
            println!(
                "    {JOBS} tenants x {ROUNDS} rounds: p50 {:.1} ms, p99 {:.1} ms, \
                 aggregate {:.0} samples/s",
                pct(0.50) * 1e3,
                pct(0.99) * 1e3,
                (total * ROUNDS) as f64 / agg_seconds.max(1e-9),
            );
        })
    });
    group.finish();
}

/// The self-healing overhead: the same 4-tenant fleet under one
/// deterministic injected transient IO fault per iteration, which fails
/// whichever tenant hits it first. The retrying runtime absorbs it (every
/// job must still succeed), so the delta against `concurrent_4jobs`
/// prices one failed attempt plus its backoff under multi-tenant load.
fn bench_faulty_tenant(c: &mut Criterion) {
    const JOBS: usize = 4;
    const DOCS: usize = 300;
    let corpora = tenant_corpora(JOBS, DOCS);
    let total: usize = corpora.iter().map(Dataset::len).sum();

    let mut group = c.benchmark_group("service");
    group.throughput(Throughput::Elements(total as u64));
    group.sample_size(10);

    group.bench_function(format!("faulty_1of{JOBS}jobs"), |b| {
        b.iter(|| {
            let rt = Runtime::new(RuntimeConfig {
                max_jobs: JOBS,
                memory_budget: None,
                retry: RetryPolicy {
                    max_attempts: 3,
                    base: Duration::from_millis(1),
                    cap: Duration::from_millis(5),
                },
            });
            // A fresh single-shot fault per iteration, the process's while
            // the fleet runs: the first worker step of any job fails with a
            // transient IO error.
            let plan = FaultPlan::single("exec.worker.step", ErrKind::Io, 1, 11);
            let _faults = faults::install(Arc::new(plan));
            let handles: Vec<_> = corpora
                .iter()
                .map(|ds| rt.submit(exec(2), ds.clone()))
                .collect();
            for h in handles {
                h.wait().expect("faulted job must recover via retry");
            }
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_concurrent_vs_serial,
    bench_latency_distribution,
    bench_faulty_tenant
);
criterion_main!(benches);
