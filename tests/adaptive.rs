//! Adaptive-planner invariants: measurement-driven planning (plan-time
//! reordering from a warm sidecar, mid-run re-planning, barrier gating,
//! knob auto-tuning) must never change pipeline output, and a cache keyed
//! by content identity is shared by every plan of a recipe and resumes
//! exactly the stages before an edit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::Dataset;
use data_juicer::exec::{executor_from_recipe, ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{to_jsonl, CacheManager, CacheMode, STATS_SIDECAR_FILE};
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

/// Where the data lives: resident or spilled — the `memory_budget`.
const SHAPES: [Option<u64>; 2] = [None, Some(1)];

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
    /// memory and spilled, adaptive output is
    /// byte-identical to static.
    #[test]
    fn prop_adaptive_matches_static(
        mask in 1u32..(1 << 8),
        np in 1usize..4,
        shard in prop_oneof![Just(None), Just(Some(3usize)), Just(Some(17usize))],
        shape in 0usize..2,
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
        let memory_budget = SHAPES[shape];
        let base = ExecOptions {
            num_workers: np,
            op_fusion: true,
            shard_size: shard,
            memory_budget,
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
/// resident or spilled run persists reorders the
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
    for memory_budget in SHAPES {
        let shape = format!("budget={memory_budget:?}");
        let stats = scratch_dir("warm");
        let opts = ExecOptions {
            num_workers: 2,
            op_fusion: true,
            adaptive: true,
            stats_dir: Some(stats.clone()),
            shard_size: memory_budget.map(|_| 40),
            memory_budget,
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
    for memory_budget in SHAPES {
        let shape = format!("budget={memory_budget:?}");
        let static_opts = ExecOptions {
            num_workers: 2,
            op_fusion: true,
            shard_size: Some(10),
            memory_budget,
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

// ---- cache identity ----------------------------------------------------

/// An executor for `recipe` that carries its op identities, as a cached
/// run needs, under `opts`.
fn cached(recipe: &Recipe, opts: ExecOptions) -> Executor {
    executor_from_recipe(recipe, &builtin_registry(), opts.op_fusion)
        .expect("ops build")
        .with_options(opts)
}

/// A barrier between two filter runs, and a threshold after it to edit:
/// stages `[3 steps] · dedup · [2 steps]`, fused or not.
fn barrier_recipe(min_len: f64) -> Recipe {
    Recipe::new("edit-after-barrier")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("lowercase_mapper"))
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", 0.1)
                .with("max_ratio", 1.0),
        )
        .then(OpSpec::new("document_deduplicator"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", min_len)
                .with("max_len", 1e9),
        )
        .then(
            OpSpec::new("word_entropy_filter")
                .with("min_entropy", 0.0)
                .with("max_entropy", 1e6),
        )
}

/// Under one cache root, editing the threshold of a filter placed after a
/// barrier resumes every stage before it, and the edited run's output is
/// byte-identical to a cold run, at np 1 and 3, static and adaptive, in
/// the shape `memory_budget` picks.
fn threshold_edit_after_a_barrier(memory_budget: Option<u64>, seed: u64) {
    let data = web_corpus(seed, 80, WebNoise::default());
    for np in [1, 3] {
        for adaptive in [false, true] {
            let tag = format!("np {np} adaptive {adaptive} budget {memory_budget:?}");
            let dir = scratch_dir("edit");
            let cache = CacheManager::new(&dir, CacheMode::Cache);
            let opts = ExecOptions {
                num_workers: np,
                adaptive,
                shard_size: Some(16),
                memory_budget,
                ..ExecOptions::default()
            };
            let exec = |min_len| cached(&barrier_recipe(min_len), opts.clone());
            let (unedited, cold) = exec(8.0).run_with_cache(data.clone(), &cache).unwrap();
            assert_eq!(cold.resumed_steps, 0, "{tag}: a cold root resumes nothing");
            assert_eq!(cold.spilled, memory_budget.is_some(), "{tag}");
            let (out, edited) = exec(500.0).run_with_cache(data.clone(), &cache).unwrap();
            assert_eq!(edited.resumed_steps, 4, "{tag}: the stages before the edit");
            assert_eq!(edited.ops.len(), 2, "{tag}: only the edited stage ran");
            assert!(out.len() < unedited.len(), "{tag}: the edit drops samples");
            let (fresh, _) = run_with(build(&barrier_recipe(500.0)), data.clone(), opts);
            assert_eq!(to_jsonl(&out), to_jsonl(&fresh), "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_threshold_edit_after_a_barrier_resumes_every_stage_before_it() {
    threshold_edit_after_a_barrier(SHAPES[0], 7);
}

#[test]
fn a_threshold_edit_after_a_barrier_resumes_spilled_entries() {
    threshold_edit_after_a_barrier(SHAPES[1], 11);
}

/// Fusion and the cost model only move steps inside a stage, so every plan
/// of one recipe shares its cache entries: a run resumes every stage a run
/// in another plan cached — fused ↔ unfused, adaptive cold ↔ warm — with
/// byte-identical output.
#[test]
fn every_plan_of_a_recipe_resumes_the_entries_another_plan_cached() {
    let recipe = misordered_recipe().then(OpSpec::new("document_deduplicator"));
    let data = selective_corpus(400);
    for memory_budget in SHAPES {
        let base = ExecOptions {
            num_workers: 2,
            shard_size: memory_budget.map(|_| 40),
            memory_budget,
            ..ExecOptions::default()
        };
        let fused = ExecOptions {
            op_fusion: true,
            ..base.clone()
        };
        let unfused = ExecOptions {
            op_fusion: false,
            ..base.clone()
        };
        let (expected, _) = run_with(build(&recipe), data.clone(), fused.clone());
        let expected = to_jsonl(&expected);
        let steps = |opts: &ExecOptions| cached(&recipe, opts.clone()).plan().steps.len();
        assert_eq!((steps(&fused), steps(&unfused)), (3, 5));
        for (first, then) in [(&fused, &unfused), (&unfused, &fused)] {
            let tag = format!("budget {memory_budget:?} fusion {}", first.op_fusion);
            let dir = scratch_dir("plans");
            let cache = CacheManager::new(&dir, CacheMode::Cache);
            cached(&recipe, first.clone())
                .run_with_cache(data.clone(), &cache)
                .unwrap();
            let (out, report) = cached(&recipe, then.clone())
                .run_with_cache(data.clone(), &cache)
                .unwrap();
            assert_eq!(report.resumed_steps, steps(then), "{tag}");
            assert!(report.ops.is_empty(), "{tag}");
            assert_eq!(to_jsonl(&out), expected, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Adaptive: the stats directory `warm` holds measurements, `cold`
        // none. Either plan resumes every stage the other cached.
        let adaptive = |stats: &PathBuf| ExecOptions {
            adaptive: true,
            stats_dir: Some(stats.clone()),
            ..fused.clone()
        };
        let warm = scratch_dir("warm-stats");
        run_with(build(&recipe), data.clone(), adaptive(&warm));
        for cold_first in [true, false] {
            let tag = format!("budget {memory_budget:?} cold first {cold_first}");
            let cold = scratch_dir("cold-stats");
            let dir = scratch_dir("adaptive-plans");
            let cache = CacheManager::new(&dir, CacheMode::Cache);
            let (first, then) = match cold_first {
                true => (&cold, &warm),
                false => (&warm, &cold),
            };
            let (_, ran) = cached(&recipe, adaptive(first))
                .run_with_cache(data.clone(), &cache)
                .unwrap();
            assert_eq!(ran.resumed_steps, 0, "{tag}");
            let head = &ran.ops[0].name;
            let warm_order = head.contains("alphanumeric_ratio_filter");
            assert_eq!(warm_order, !cold_first, "{tag}: plan head {head}");
            let (out, report) = cached(&recipe, adaptive(then))
                .run_with_cache(data.clone(), &cache)
                .unwrap();
            assert_eq!(report.measured_steps > 0, cold_first, "{tag}");
            assert_eq!(report.resumed_steps, 3, "{tag}");
            assert!(report.ops.is_empty(), "{tag}");
            assert_eq!(to_jsonl(&out), expected, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&cold);
        }
        let _ = std::fs::remove_dir_all(&warm);
    }
}

// ---- barrier gating ---------------------------------------------------

/// The gating decision is the barrier's, whatever shape the data is in.
#[test]
fn barrier_gating_decisions_are_recorded() {
    let recipe = Recipe::new("gate").then(OpSpec::new("document_deduplicator"));
    let small = web_corpus(3, 50, WebNoise::default());
    let tiny_docs: Vec<String> = (0..2100).map(|i| format!("doc {i} text")).collect();
    for memory_budget in SHAPES {
        let opts = |num_workers| ExecOptions {
            num_workers,
            shard_size: Some(64),
            memory_budget,
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
