//! Service-runtime tests: multi-tenant byte-identity, admission control,
//! cancellation hygiene, and the persistent-pool no-respawn guarantee.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{Dataset, DjError, WorkerPool};
use data_juicer::exec::{ExecOptions, Executor, Runtime, RuntimeConfig};
use data_juicer::ops::builtin_registry;
use data_juicer::synth::{web_corpus, WebNoise};

fn recipe() -> Recipe {
    Recipe::new("service")
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

fn corpus(seed: u64, n: usize) -> Dataset {
    let mut ds = web_corpus(seed, n, WebNoise::default());
    // Cross-shard duplicates so dedup barriers do real work per job.
    let copies: Vec<_> = ds.iter().take(n / 10).cloned().collect();
    for s in copies {
        ds.push(s);
    }
    ds
}

fn exec_with(opts: ExecOptions) -> Executor {
    let ops = recipe().build_ops(&builtin_registry()).unwrap();
    Executor::new(ops).with_options(opts)
}

fn mem_opts(np: usize) -> ExecOptions {
    ExecOptions {
        num_workers: np,
        // u64::MAX keeps solo references in memory whatever
        // `DJ_MEMORY_BUDGET` the host sets.
        memory_budget: Some(u64::MAX),
        ..ExecOptions::default()
    }
}

fn spill_opts(np: usize, dir: Option<PathBuf>) -> ExecOptions {
    ExecOptions {
        num_workers: np,
        shard_size: Some(16),
        memory_budget: Some(1),
        spill_dir: dir,
        ..ExecOptions::default()
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dj-service-{tag}-{}", std::process::id()))
}

/// N ≥ 4 jobs with distinct datasets submitted concurrently through one
/// runtime produce byte-identical outputs to solo direct runs — fair
/// shard scheduling interleaves the jobs' morsels but never mixes or
/// reorders their data. Exercised in memory and over both spool formats.
#[test]
fn concurrent_jobs_byte_identical_to_solo_runs() {
    let datasets: Vec<Dataset> = (0..4).map(|i| corpus(100 + i as u64, 120)).collect();
    let solo: Vec<Dataset> = datasets
        .iter()
        .map(|ds| exec_with(mem_opts(2)).run(ds.clone()).unwrap().0)
        .collect();

    for spill in [false, true] {
        let rt = Runtime::new(RuntimeConfig {
            max_jobs: 4,
            memory_budget: None,
            ..RuntimeConfig::default()
        });
        let handles: Vec<_> = datasets
            .iter()
            .map(|ds| {
                let opts = if spill {
                    spill_opts(2, None)
                } else {
                    mem_opts(2)
                };
                rt.submit(exec_with(opts), ds.clone())
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.wait().unwrap();
            let got = out.dataset.unwrap();
            assert_eq!(
                got, solo[i],
                "job {i} diverged from its solo run (spill={spill})"
            );
            assert_eq!(out.report.spilled, spill, "job {i} spill mode");
        }
        assert_eq!(rt.jobs_in_flight(), 0);
    }
}

/// Admission control: with a global memory budget set, four concurrent
/// forced-spill jobs each run under `budget / max_jobs`, and the
/// aggregate gauge — samples resident across *all* jobs at once — never
/// exceeds the global budget.
#[test]
fn aggregate_residency_stays_under_the_global_budget() {
    let global: u64 = 64 * 1024;
    let datasets: Vec<Dataset> = (0..4).map(|i| corpus(200 + i as u64, 150)).collect();
    let rt = Runtime::new(RuntimeConfig {
        max_jobs: 4,
        memory_budget: Some(global),
        ..RuntimeConfig::default()
    });
    let handles: Vec<_> = datasets
        .iter()
        .map(|ds| {
            // No per-job budget and no explicit shard_size: the runtime's
            // partitioned share drives both the spill decision and the
            // budget-derived shard cut.
            let opts = ExecOptions {
                num_workers: 1,
                ..ExecOptions::default()
            };
            rt.submit(exec_with(opts), ds.clone())
        })
        .collect();
    for h in handles {
        let out = h.wait().unwrap();
        assert!(
            out.report.spilled,
            "dataset larger than the per-job share must spill"
        );
    }
    assert!(rt.peak_resident_samples() > 0);
    assert!(
        rt.peak_resident_bytes() as u64 <= global,
        "aggregate resident bytes {} exceeded the global budget {global}",
        rt.peak_resident_bytes()
    );
}

/// Cancellation: a running spilled job stops within shards, surfaces
/// `DjError::Cancelled`, leaves its spill directory empty (spools remove
/// themselves on drop — the tempdir-left-empty assertion), and a queued
/// survivor still completes byte-identically to its solo run.
#[test]
fn cancellation_releases_resources_and_survivors_complete() {
    let dir = unique_dir("cancel");
    let survivor_data = corpus(301, 120);
    let solo_survivor = exec_with(mem_opts(2)).run(survivor_data.clone()).unwrap().0;

    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // One slot: the victim occupies it, the survivor queues behind it.
    let rt = Runtime::new(RuntimeConfig {
        max_jobs: 1,
        memory_budget: None,
        ..RuntimeConfig::default()
    });
    let victim = rt.submit(
        exec_with(ExecOptions {
            shard_size: Some(8),
            ..spill_opts(2, Some(dir.clone()))
        }),
        corpus(300, 4000),
    );
    let survivor = rt.submit(exec_with(mem_opts(2)), survivor_data.clone());

    // Cancel once the victim has demonstrably started streaming shards.
    let ctl = victim.control();
    let deadline = Instant::now() + Duration::from_secs(30);
    while ctl.shards_done() < 1 {
        assert!(Instant::now() < deadline, "victim never started streaming");
        std::thread::sleep(Duration::from_millis(1));
    }
    victim.cancel();
    match victim.wait() {
        Err(DjError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // The survivor was untouched by the cancellation.
    let out = survivor.wait().unwrap();
    assert_eq!(out.dataset.unwrap(), solo_survivor);

    // Spool hygiene: the cancelled job's spill dir holds nothing.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(
        leftovers.is_empty(),
        "cancelled job leaked spill files: {leftovers:?}"
    );
    // And its residency accounting drained back to zero.
    assert_eq!(
        ctl.live_samples(),
        0,
        "cancelled job left samples accounted"
    );
    assert_eq!(ctl.live_bytes(), 0, "cancelled job left bytes accounted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancellation reaches an *in-memory* dedup barrier: the recipe is a lone
/// MinHash deduplicator over resident data, so the only shard progress the
/// job can report comes from inside the barrier's hash pass. Once it has,
/// a cancel must stop the barrier at the next morsel — `Cancelled`, no
/// output, residency drained — instead of hashing and clustering the
/// whole corpus first.
#[test]
fn cancellation_stops_an_in_memory_barrier() {
    let ops = Recipe::new("barrier-only")
        .then(OpSpec::new("document_minhash_deduplicator"))
        .build_ops(&builtin_registry())
        .unwrap();
    let rt = Runtime::new(RuntimeConfig {
        max_jobs: 1,
        memory_budget: None,
        ..RuntimeConfig::default()
    });
    let job = rt.submit(
        Executor::new(ops).with_options(mem_opts(2)),
        corpus(700, 30_000),
    );
    let ctl = job.control();
    let deadline = Instant::now() + Duration::from_secs(60);
    while ctl.shards_done() < 1 {
        assert!(
            Instant::now() < deadline && !job.is_finished(),
            "an in-memory barrier reported no shard progress before finishing"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    job.cancel();
    match job.wait() {
        Err(DjError::Cancelled) => {}
        Ok(_) => panic!("the cancelled barrier ran to completion and produced its output"),
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(
        ctl.live_samples(),
        0,
        "cancelled barrier left samples accounted"
    );
    assert_eq!(
        ctl.live_bytes(),
        0,
        "cancelled barrier left bytes accounted"
    );
}

/// Cancelling a job that is still queued resolves it as `Cancelled`
/// without it ever running (its progress counters stay zero).
#[test]
fn queued_jobs_cancel_without_running() {
    let rt = Runtime::new(RuntimeConfig {
        max_jobs: 1,
        memory_budget: None,
        ..RuntimeConfig::default()
    });
    let front = rt.submit(exec_with(mem_opts(2)), corpus(400, 2000));
    let queued = rt.submit(exec_with(mem_opts(2)), corpus(401, 50));
    queued.cancel();
    let ctl = queued.control();
    assert!(matches!(queued.wait(), Err(DjError::Cancelled)));
    assert_eq!(ctl.shards_done(), 0, "cancelled-in-queue job ran anyway");
    assert!(front.wait().is_ok());
}

/// The tentpole regression guard: running many jobs re-uses the one
/// persistent worker pool — the pool's lifetime thread-spawn counter does
/// not grow with job count (the old engine spawned fresh scoped threads
/// for every stage pass of every run). The jobs cover every kind of pool
/// section: spilled and resident stage passes, and a barrier big enough
/// to cluster on the pool (`WorkerPool::run_indexed`).
#[test]
fn repeated_jobs_do_not_respawn_pool_threads() {
    // Force pool creation (and any lazy one-time spawns) first.
    let rt = Runtime::new(RuntimeConfig::default());
    rt.submit(exec_with(spill_opts(2, None)), corpus(500, 80))
        .wait()
        .unwrap();
    let before = WorkerPool::spawned_total();
    for i in 0..6 {
        let (opts, n) = match i % 3 {
            0 => (spill_opts(2, None), 80),
            1 => (mem_opts(3), 80),
            // ≥ 1024 samples per worker: the barrier clusters in parallel.
            _ => (mem_opts(2), 2100),
        };
        let out = rt
            .submit(exec_with(opts), corpus(510 + i as u64, n))
            .wait()
            .unwrap();
        let parallel = out.report.barrier_decisions.iter().any(|d| d.parallel);
        assert_eq!(
            parallel,
            n > 1000,
            "job {i}: {:?}",
            out.report.barrier_decisions
        );
    }
    let after = WorkerPool::spawned_total();
    assert_eq!(
        before,
        after,
        "worker pool spawned {} new threads across 6 jobs",
        after - before
    );
}

/// A job submitted through the runtime mirrors the shard-progress API:
/// `shards_done` is positive after a run and `live_samples` drains to 0.
#[test]
fn progress_counters_track_and_drain() {
    let rt = Runtime::new(RuntimeConfig::default());
    let handle = rt.submit(exec_with(spill_opts(2, None)), corpus(600, 120));
    let ctl = handle.control();
    let out = handle.wait().unwrap();
    assert!(out.report.spilled);
    assert!(ctl.shards_done() > 0, "no shard progress recorded");
    assert_eq!(ctl.live_samples(), 0);
    assert_eq!(ctl.live_bytes(), 0);
    let progress_samples = Arc::strong_count(&ctl);
    assert!(progress_samples >= 1);
}
