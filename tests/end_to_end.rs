//! End-to-end integration tests spanning the whole workspace: recipes from
//! the catalog against the registry, full pipeline runs over synthetic
//! corpora, and the analyzer/evaluator chain.

use data_juicer::analyze::{trace_op, Analyzer};
use data_juicer::config::{recipes, Recipe};
use data_juicer::eval::{measure_profile, ProxyLlm};
use data_juicer::exec::{ExecOptions, Executor, Runtime, RuntimeConfig};
use data_juicer::ops::builtin_registry;
use data_juicer::store::to_bytes;
use data_juicer::synth::{web_corpus, WebNoise};

#[test]
fn every_catalog_recipe_resolves_against_the_registry() {
    let registry = builtin_registry();
    for name in recipes::catalog() {
        let recipe = recipes::by_name(name).expect("catalog entry exists");
        let unknown = recipe.validate(&registry);
        assert!(
            unknown.is_empty(),
            "recipe `{name}` references unknown ops: {unknown:?}"
        );
        recipe
            .build_ops(&registry)
            .unwrap_or_else(|e| panic!("recipe `{name}` fails to build: {e}"));
    }
}

/// Every recipe file the repository ships — the fixtures and the
/// benchmark's — loads and builds: none carries a key its op does not read.
#[test]
fn every_shipped_recipe_file_builds() {
    let registry = builtin_registry();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut built = 0;
    for dir in ["fixtures", "djbench/recipes"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "yaml") {
                let text = std::fs::read_to_string(&path).unwrap();
                Recipe::from_yaml(&text)
                    .and_then(|r| r.build_ops(&registry))
                    .unwrap_or_else(|e| panic!("{} fails to build: {e}", path.display()));
                built += 1;
            }
        }
    }
    assert!(built >= 4, "{built} recipe files");
}

/// Every catalog recipe runs on mixed data without growing it — and gives
/// the same bytes in every shape a recipe can ask for: spilled, planned
/// adaptively, and submitted to a runtime. The
/// catalog is where ops meet in stages (and footprints add up) the way
/// users combine them.
#[test]
fn every_catalog_recipe_runs_on_mixed_data() {
    let registry = builtin_registry();
    let data = web_corpus(5, 80, WebNoise::default());
    let runtime = Runtime::new(RuntimeConfig::default());
    let base = ExecOptions {
        num_workers: 2,
        shard_size: Some(8),
        ..ExecOptions::default()
    };
    let shapes = [
        (
            "spill",
            ExecOptions {
                memory_budget: Some(1),
                ..base.clone()
            },
        ),
        (
            "adaptive",
            ExecOptions {
                adaptive: true,
                ..base.clone()
            },
        ),
    ];
    for name in recipes::catalog() {
        let recipe = recipes::by_name(name).expect("catalog entry exists");
        let ops = recipe.build_ops(&registry).expect("builds");
        let run = |options: &ExecOptions| {
            Executor::new(ops.clone())
                .with_options(options.clone())
                .run(data.clone())
                .unwrap_or_else(|e| panic!("recipe `{name}` fails to run: {e}"))
        };
        let (out, report) = run(&base);
        assert!(
            out.len() <= data.len(),
            "`{name}` must not grow the dataset"
        );
        assert_eq!(report.final_samples, out.len());
        let expected = to_bytes(&out);
        for (shape, options) in &shapes {
            assert!(to_bytes(&run(options).0) == expected, "`{name}` {shape}");
        }
        let job = runtime.submit(Executor::new(ops).with_options(base.clone()), data.clone());
        let job = job.wait().unwrap().dataset.unwrap();
        assert!(to_bytes(&job) == expected, "`{name}` as a runtime job");
    }
}

#[test]
fn refinement_improves_measured_quality_and_proxy_score() {
    let registry = builtin_registry();
    let raw = web_corpus(
        6,
        300,
        WebNoise {
            spam_rate: 0.4,
            toxic_rate: 0.15,
            dup_rate: 0.12,
            near_dup_rate: 0.08,
            boilerplate_rate: 0.5,
        },
    );
    let ops = recipes::commoncrawl_refine().build_ops(&registry).unwrap();
    let (refined, _) = Executor::new(ops).run(raw.clone()).unwrap();
    assert!(!refined.is_empty(), "refinement must not empty the corpus");

    let mut raw_m = raw;
    let mut refined_m = refined;
    let p_raw = measure_profile(&mut raw_m, 1.0);
    let p_ref = measure_profile(&mut refined_m, 1.0);
    assert!(
        p_ref.cleanliness > p_raw.cleanliness,
        "{p_ref:?} vs {p_raw:?}"
    );
    assert!(p_ref.dup_rate < p_raw.dup_rate);

    let llm = ProxyLlm::new();
    let s_raw = llm.evaluate("raw", &p_raw, 100.0).average();
    let s_ref = llm.evaluate("refined", &p_ref, 100.0).average();
    assert!(s_ref > s_raw, "refined {s_ref} must beat raw {s_raw}");
}

/// The tracer dry-runs one op at a time; advanced op by op over Fig. 4's
/// input, it must see exactly what the engine's unfused run reports for
/// each op, and end on the same data.
#[test]
fn the_tracer_agrees_with_the_engine_op_by_op() {
    let ops = recipes::commoncrawl_refine()
        .build_ops(&builtin_registry())
        .unwrap();
    let data = web_corpus(404, 600, WebNoise::default());
    let options = ExecOptions {
        num_workers: 2,
        op_fusion: false,
        ..ExecOptions::default()
    };
    let (expected, report) = Executor::new(ops.clone())
        .with_options(options.clone())
        .run(data.clone())
        .unwrap();
    assert_eq!(report.ops.len(), ops.len());
    let mut current = data;
    for (op, engine) in ops.iter().zip(&report.ops) {
        let trace = trace_op(op, &current).unwrap();
        assert_eq!(trace.op_name, engine.name);
        assert_eq!(trace.samples_seen, engine.samples_in, "{}", engine.name);
        assert_eq!(trace.removed(), engine.removed, "{}", engine.name);
        assert_eq!(trace.edited(), engine.changed, "{}", engine.name);
        let step = Executor::new(vec![op.clone()]).with_options(options.clone());
        current = step.run(current).unwrap().0;
    }
    assert_eq!(current, expected);
    assert!(report.ops.iter().any(|o| o.changed > 0) && report.final_samples < 600);
}

#[test]
fn yaml_recipe_file_roundtrip_via_disk() {
    let recipe = recipes::commoncrawl_refine();
    let path = std::env::temp_dir().join(format!("dj-it-recipe-{}.yaml", std::process::id()));
    std::fs::write(&path, recipe.to_yaml()).unwrap();
    let loaded = Recipe::from_yaml(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded, recipe);
    assert_eq!(loaded.op_ids(), recipe.op_ids());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyzer_stats_are_consumed_by_later_filters() {
    // An analyzer pass records stats; the pipeline's filters measure their
    // own again, with the code the analyzer measured with, so a survivor
    // carries exactly the analyzer's value — whether the stats stay resident
    // or travel through a spool.
    let registry = builtin_registry();
    let mut data = web_corpus(8, 60, WebNoise::default());
    Analyzer::new().probe(&mut data);
    let recipe = Recipe::new("stats-reuse").then(
        data_juicer::config::OpSpec::new("word_num_filter")
            .with("min_num", 5.0)
            .with("max_num", 1e9),
    );
    let ops = recipe.build_ops(&registry).unwrap();
    let before_stats: Vec<Option<f64>> = data.iter().map(|s| s.stat("word_count")).collect();
    for memory_budget in [None, Some(1)] {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            shard_size: Some(8),
            memory_budget,
            ..ExecOptions::default()
        });
        let (out, report) = exec.run(data.clone()).unwrap();
        assert_eq!(report.spilled, memory_budget.is_some());
        // Every surviving sample carries the exact analyzer-computed value.
        for s in out.iter() {
            let v = s.stat("word_count").expect("stat present");
            assert!(before_stats.contains(&Some(v)), "{memory_budget:?}");
        }
    }
}

#[test]
fn multilingual_pipeline_separates_languages() {
    let registry = builtin_registry();
    let mut data = data_juicer::synth::chinese_corpus(9, 40, 0.1);
    data.extend(web_corpus(10, 40, WebNoise::default()));
    let zh_ops = recipes::by_name("pretrain-chinese-web-refine")
        .unwrap()
        .build_ops(&registry)
        .unwrap();
    let (zh_out, _) = Executor::new(zh_ops).run(data).unwrap();
    assert!(!zh_out.is_empty());
    for s in zh_out.iter() {
        assert!(
            data_juicer::text::cjk_ratio(s.text()) > 0.5,
            "non-Chinese text leaked through: {:?}",
            &s.text()[..40.min(s.text().len())]
        );
    }
}
