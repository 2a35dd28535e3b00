//! Adaptive-planner invariants: measurement-driven planning (plan-time
//! reordering from a warm sidecar, mid-run re-planning, barrier gating,
//! knob auto-tuning) must never change pipeline output, and per-op prefix
//! caching must resume exactly the ops before an edit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::Dataset;
use data_juicer::exec::{ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{CacheManager, CacheMode, STATS_SIDECAR_FILE};
use data_juicer::synth::{web_corpus, WebNoise};

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dj-adaptive-{tag}-{}-{seq}", std::process::id()))
}

fn texts(d: &Dataset) -> Vec<String> {
    d.iter().map(|s| s.text().to_string()).collect()
}

fn build(recipe: &Recipe) -> Vec<data_juicer::core::Op> {
    recipe.build_ops(&builtin_registry()).expect("ops build")
}

/// The misordered recipe: two equal-size fusible pairs, so the static
/// size-sort ties and keeps recipe order — the expensive keep-all WORDS
/// pair runs before the cheap selective CHARS pair until measurements say
/// otherwise.
fn misordered_recipe() -> Recipe {
    Recipe::new("misordered")
        .then(
            OpSpec::new("word_entropy_filter")
                .with("min_entropy", 0.0)
                .with("max_entropy", 1e6),
        )
        .then(
            OpSpec::new("average_word_length_filter")
                .with("min_len", 0.0)
                .with("max_len", 1e6),
        )
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", 0.5)
                .with("max_ratio", 1.0),
        )
        .then(
            OpSpec::new("special_characters_filter")
                .with("min_ratio", 0.0)
                .with("max_ratio", 0.4),
        )
}

/// A corpus where the CHARS pair is genuinely selective: a quarter of the
/// documents are symbol soup with a near-zero alphanumeric ratio.
fn selective_corpus(n: usize) -> Dataset {
    let mut docs = Vec::with_capacity(n);
    for i in 0..n {
        if i % 4 == 0 {
            docs.push(format!("@@@@ #### $$$$ %%%% ^^^^ &&&& **** (((( )))) {i}"));
        } else {
            docs.push(format!(
                "document number {i} carries enough ordinary prose to pass \
                 every word statistic comfortably and repeatedly"
            ));
        }
    }
    Dataset::from_texts(docs)
}

/// Where the data lives: resident, spilled to row frames, spilled to
/// columnar frames — `(memory_budget, columnar)`.
const SHAPES: [(Option<u64>, bool); 3] = [(None, false), (Some(1), false), (Some(1), true)];

fn run_with(
    ops: Vec<data_juicer::core::Op>,
    data: Dataset,
    opts: ExecOptions,
) -> (Dataset, data_juicer::exec::RunReport) {
    Executor::new(ops)
        .with_options(opts)
        .run(data)
        .expect("pipeline runs")
}

// ---- adaptive ≡ static byte-identity --------------------------------

/// Pool of commutable-safe OPs for randomized pipelines (mix of mappers,
/// contextless/context filters, and a dedup barrier).
fn spec_pool() -> Vec<OpSpec> {
    vec![
        OpSpec::new("whitespace_normalization_mapper"),
        OpSpec::new("lowercase_mapper"),
        OpSpec::new("text_length_filter")
            .with("min_len", 10.0)
            .with("max_len", 1e9),
        OpSpec::new("word_num_filter")
            .with("min_num", 3.0)
            .with("max_num", 1e9),
        OpSpec::new("alphanumeric_ratio_filter")
            .with("min_ratio", 0.1)
            .with("max_ratio", 1.0),
        OpSpec::new("average_line_length_filter")
            .with("min_len", 0.0)
            .with("max_len", 1e9),
        OpSpec::new("word_entropy_filter")
            .with("min_entropy", 0.0)
            .with("max_entropy", 1e6),
        OpSpec::new("document_deduplicator"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Adaptive planning (run-local and warm-sidecar) never changes the
    /// output: for random pipelines × worker counts × shard sizes, in
    /// memory and spilled (row or columnar), adaptive output is
    /// byte-identical to static.
    #[test]
    fn prop_adaptive_matches_static(
        mask in 1u32..(1 << 8),
        np in 1usize..4,
        shard in prop_oneof![Just(None), Just(Some(3usize)), Just(Some(17usize))],
        shape in 0usize..3,
        seed in 0u64..500,
    ) {
        let pool = spec_pool();
        let mut recipe = Recipe::new("prop-adaptive").with_np(np);
        for (i, spec) in pool.into_iter().enumerate() {
            if mask & (1 << i) != 0 {
                recipe = recipe.then(spec);
            }
        }
        let data = web_corpus(seed, 60, WebNoise::default());
        let (memory_budget, columnar) = SHAPES[shape];
        let base = ExecOptions {
            num_workers: np,
            op_fusion: true,
            shard_size: shard,
            memory_budget,
            columnar,
            ..ExecOptions::default()
        };
        let (static_out, _) = run_with(build(&recipe), data.clone(), base.clone());

        // Run-local adaptive: mid-run replanning + gating, no sidecar.
        let (adaptive_out, _) = run_with(
            build(&recipe),
            data.clone(),
            ExecOptions { adaptive: true, ..base.clone() },
        );
        prop_assert_eq!(texts(&static_out), texts(&adaptive_out));

        // Warm-sidecar adaptive: the second run plans from measurements.
        let stats = scratch_dir("prop");
        let warm_opts = ExecOptions {
            adaptive: true,
            stats_dir: Some(stats.clone()),
            ..base
        };
        let (cold_out, _) = run_with(build(&recipe), data.clone(), warm_opts.clone());
        let (warm_out, _) = run_with(build(&recipe), data, warm_opts);
        prop_assert_eq!(texts(&static_out), texts(&cold_out));
        prop_assert_eq!(texts(&static_out), texts(&warm_out));
        let _ = std::fs::remove_dir_all(&stats);
    }
}

// ---- warm-sidecar plan reordering ------------------------------------

/// Measurements taken in any shape plan the next run: the sidecar a
/// resident, row-spilled or columnar-spilled run persists reorders the
/// warm run the same way.
#[test]
fn warm_sidecar_reorders_misordered_recipe() {
    let recipe = misordered_recipe();
    let data = selective_corpus(400);
    // A fully static run: the output every adaptive one must equal.
    let (static_out, _) = run_with(
        build(&recipe),
        data.clone(),
        ExecOptions {
            num_workers: 2,
            op_fusion: true,
            ..ExecOptions::default()
        },
    );
    for (memory_budget, columnar) in SHAPES {
        let shape = format!("budget={memory_budget:?} columnar={columnar}");
        let stats = scratch_dir("warm");
        let opts = ExecOptions {
            num_workers: 2,
            op_fusion: true,
            adaptive: true,
            stats_dir: Some(stats.clone()),
            shard_size: memory_budget.map(|_| 40),
            memory_budget,
            columnar,
            ..ExecOptions::default()
        };

        let (cold_out, cold) = run_with(build(&recipe), data.clone(), opts.clone());
        assert!(cold.adaptive);
        assert_eq!(cold.spilled, memory_budget.is_some(), "{shape}");
        assert_eq!(
            cold.measured_steps, 0,
            "{shape}: first run has no sidecar to plan from"
        );
        assert!(
            cold.ops[0].name.contains("word_entropy_filter"),
            "{shape}: static tie keeps recipe (misordered) order, got {}",
            cold.ops[0].name
        );
        assert!(
            stats.join(STATS_SIDECAR_FILE).is_file(),
            "{shape}: run persists the stats sidecar"
        );

        let (warm_out, warm) = run_with(build(&recipe), data.clone(), opts);
        assert!(
            warm.measured_steps >= 2,
            "{shape}: second run ranks from measurements, got {}",
            warm.measured_steps
        );
        assert!(
            warm.ops[0].name.contains("alphanumeric_ratio_filter"),
            "{shape}: warm plan runs the cheap selective CHARS pair first, got {}",
            warm.ops[0].name
        );
        assert_eq!(
            texts(&cold_out),
            texts(&warm_out),
            "{shape}: reordering is invisible"
        );
        assert_eq!(texts(&static_out), texts(&warm_out), "{shape}");
        let _ = std::fs::remove_dir_all(&stats);
    }
}

// ---- mid-run re-planning ---------------------------------------------

#[test]
fn midrun_replan_flips_misordered_stage() {
    let recipe = misordered_recipe();
    let data = selective_corpus(400);
    for (memory_budget, columnar) in SHAPES {
        let shape = format!("budget={memory_budget:?} columnar={columnar}");
        let static_opts = ExecOptions {
            num_workers: 2,
            op_fusion: true,
            shard_size: Some(10),
            memory_budget,
            columnar,
            ..ExecOptions::default()
        };
        let (static_out, _) = run_with(build(&recipe), data.clone(), static_opts.clone());

        // Run-local adaptive (no sidecar): the replanner measures the first
        // eight shards (a quarter of the stage's 40, clamped to [1, 8]), sees
        // the keep-all WORDS pair scoring ~1000× worse than the selective
        // CHARS pair, and reorders the remaining 32 shards — resident or
        // streamed from a spool.
        let (out, report) = run_with(
            build(&recipe),
            data.clone(),
            ExecOptions {
                adaptive: true,
                ..static_opts
            },
        );
        assert_eq!(report.spilled, memory_budget.is_some(), "{shape}");
        assert!(
            report.replans >= 1,
            "{shape}: misordered commutable stage must trigger a mid-run replan"
        );
        assert_eq!(
            texts(&static_out),
            texts(&out),
            "{shape}: mid-run reordering is byte-invisible"
        );
        // Stats still merge onto canonical plan positions.
        assert!(
            report.ops[0].name.contains("word_entropy_filter"),
            "{shape}"
        );
    }
}

// ---- per-op prefix caching -------------------------------------------

fn edit_pipeline(swap: bool) -> Recipe {
    let mid = if swap {
        // The edit: replace op #2.
        OpSpec::new("word_num_filter")
            .with("min_num", 2.0)
            .with("max_num", 1e9)
    } else {
        OpSpec::new("text_length_filter")
            .with("min_len", 8.0)
            .with("max_len", 1e9)
    };
    Recipe::new("prefix-edit")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("lowercase_mapper"))
        .then(mid)
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", 0.1)
                .with("max_ratio", 1.0),
        )
        .then(
            OpSpec::new("word_entropy_filter")
                .with("min_entropy", 0.0)
                .with("max_entropy", 1e6),
        )
}

/// Editing op `k` of an n-op pipeline under prefix caching resumes ops
/// `0..k` from cache — only the edited op and everything after recompute.
#[test]
fn prefix_cache_resumes_ops_before_the_edit() {
    let data = web_corpus(7, 80, WebNoise::default());
    let dir = scratch_dir("prefix");
    // One shared cache *space* across the edit (a project-level key):
    // the chained prefix fingerprints, not the directory, decide hits.
    let cache = CacheManager::new(&dir, 0xD1CE, CacheMode::Cache);
    let opts = ExecOptions {
        num_workers: 2,
        op_fusion: false,
        prefix_cache: true,
        ..ExecOptions::default()
    };

    let exec = Executor::new(build(&edit_pipeline(false))).with_options(opts.clone());
    let (out1, r1) = exec.run_with_cache(data.clone(), &cache).expect("run 1");
    assert_eq!(r1.resumed_steps, 0, "cold cache resumes nothing");
    assert_eq!(r1.stages, 5, "prefix caching stages the plan per step");

    // Unchanged re-run: every stage comes from cache.
    let (out2, r2) = exec.run_with_cache(data.clone(), &cache).expect("run 2");
    assert_eq!(r2.resumed_steps, 5, "identical recipe resumes every step");
    assert_eq!(texts(&out1), texts(&out2));

    // Edit op #2: ops 0..2 hit their prefix entries, 2.. recompute.
    let edited = Executor::new(build(&edit_pipeline(true))).with_options(opts.clone());
    let (out3, r3) = edited.run_with_cache(data.clone(), &cache).expect("run 3");
    assert_eq!(r3.resumed_steps, 2, "ops before the edit resume from cache");
    let (fresh, _) = run_with(build(&edit_pipeline(true)), data, opts);
    assert_eq!(
        texts(&fresh),
        texts(&out3),
        "prefix-cache resume is output-transparent"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Prefix caching composes with the out-of-core engine: spilled per-step
/// entries, row or columnar, resume exactly like in-memory ones.
#[test]
fn prefix_cache_resumes_spilled_entries() {
    let data = web_corpus(11, 80, WebNoise::default());
    for columnar in [false, true] {
        let dir = scratch_dir("prefix-spill");
        let cache = CacheManager::new(&dir, 0xD1CE, CacheMode::Cache);
        let opts = ExecOptions {
            num_workers: 2,
            op_fusion: false,
            prefix_cache: true,
            shard_size: Some(16),
            memory_budget: Some(1),
            columnar,
            ..ExecOptions::default()
        };
        let exec = Executor::new(build(&edit_pipeline(false))).with_options(opts.clone());
        let (out1, r1) = exec.run_with_cache(data.clone(), &cache).expect("run 1");
        assert!(r1.spilled, "1-byte budget must spill");
        assert_eq!(r1.columnar, columnar);
        let (out2, r2) = exec.run_with_cache(data.clone(), &cache).expect("run 2");
        assert_eq!(r2.resumed_steps, 5, "columnar={columnar}");
        assert_eq!(texts(&out1), texts(&out2), "columnar={columnar}");

        let edited = Executor::new(build(&edit_pipeline(true))).with_options(opts.clone());
        let (out3, r3) = edited.run_with_cache(data.clone(), &cache).expect("run 3");
        assert_eq!(r3.resumed_steps, 2, "columnar={columnar}");
        let (fresh, _) = run_with(build(&edit_pipeline(true)), data.clone(), opts);
        assert_eq!(texts(&fresh), texts(&out3), "columnar={columnar}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- barrier gating ---------------------------------------------------

/// The gating decision is the barrier's, whatever shape the data is in.
#[test]
fn barrier_gating_decisions_are_recorded() {
    let recipe = Recipe::new("gate").then(OpSpec::new("document_deduplicator"));
    let small = web_corpus(3, 50, WebNoise::default());
    let tiny_docs: Vec<String> = (0..2100).map(|i| format!("doc {i} text")).collect();
    for (memory_budget, columnar) in SHAPES {
        let opts = |num_workers| ExecOptions {
            num_workers,
            shard_size: Some(64),
            memory_budget,
            columnar,
            ..ExecOptions::default()
        };

        // Small input on a 2-worker pool: sequential, "small-input".
        let (_, r) = run_with(build(&recipe), small.clone(), opts(2));
        assert_eq!(r.spilled, memory_budget.is_some());
        let d = &r.barrier_decisions[0];
        assert_eq!((d.reason, d.workers, d.parallel), ("small-input", 1, false));
        assert_eq!(d.name, "document_deduplicator");
        assert_eq!(d.samples, 50);

        // One worker: "single-worker".
        let (_, r) = run_with(build(&recipe), small.clone(), opts(1));
        assert_eq!(r.barrier_decisions[0].reason, "single-worker");

        // Enough samples per worker: the banded exchange runs.
        let (_, r) = run_with(
            build(&recipe),
            Dataset::from_texts(tiny_docs.clone()),
            opts(2),
        );
        let d = &r.barrier_decisions[0];
        assert_eq!((d.reason, d.workers, d.parallel), ("parallel", 2, true));
    }
}

// ---- knob auto-tuning -------------------------------------------------

/// The tuner sizes unset shards from a warm model — also the shards a
/// spilled run cuts, which would otherwise be sized from the budget.
#[test]
fn warm_model_autotunes_unset_knobs() {
    let recipe = misordered_recipe();
    let data = selective_corpus(300);
    for memory_budget in [None, Some(4096)] {
        let stats = scratch_dir("tune");
        let opts = ExecOptions {
            num_workers: 2,
            op_fusion: true,
            adaptive: true,
            stats_dir: Some(stats.clone()),
            shard_size: None,
            memory_budget,
            ..ExecOptions::default()
        };
        let (_, cold) = run_with(build(&recipe), data.clone(), opts.clone());
        assert_eq!(cold.spilled, memory_budget.is_some());
        assert_eq!(cold.tuned_shard_size, None, "cold model tunes nothing");

        let (_, warm) = run_with(build(&recipe), data.clone(), opts.clone());
        let tuned = warm.tuned_shard_size.expect("warm model sizes shards");
        assert!((64..=1 << 16).contains(&tuned), "tuned size {tuned} sane");

        // An explicit shard_size is never overridden.
        let (_, pinned) = run_with(
            build(&recipe),
            data.clone(),
            ExecOptions {
                shard_size: Some(32),
                ..opts
            },
        );
        assert_eq!(pinned.tuned_shard_size, None);
        let _ = std::fs::remove_dir_all(&stats);
    }
}
