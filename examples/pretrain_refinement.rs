//! Pre-training data refinement: the paper's flagship workload. A noisy
//! CommonCrawl-style corpus goes through the `pretrain-commoncrawl-refine`
//! built-in recipe (19 OPs) with caching enabled, a second round edits one
//! dedup threshold and resumes every stage before it from the cache, then
//! the analyzer compares before/after probes and the proxy evaluator
//! scores both datasets at an equal token budget.
//!
//! Run with: `cargo run --example pretrain_refinement`

use data_juicer::analyze::visualize;
use data_juicer::config::recipes;
use data_juicer::eval::{measure_profile, ProxyLlm};
use data_juicer::exec::executor_from_recipe;
use data_juicer::prelude::*;
use data_juicer::store::{CacheManager, CacheMode};
use data_juicer::synth::{web_corpus, WebNoise};

fn main() -> Result<()> {
    let mut raw = web_corpus(2024, 800, WebNoise::default());
    println!(
        "raw corpus: {} docs, {:.2} MB",
        raw.len(),
        raw.text_bytes() as f64 / 1e6
    );

    // Probe the raw data (step 1 of the Fig. 5 loop).
    let probe_before = Analyzer::new().probe(&mut raw);
    println!("\nraw data probe (3 of 13 dimensions):");
    for dim in ["word_count", "flagged_word_ratio", "word_rep_ratio"] {
        if let Some(s) = probe_before.summaries.get(dim) {
            print!("{}", visualize::box_plot(dim, s, 48));
        }
    }

    // Run the built-in refinement recipe (step 2) under one cache root.
    // Every recipe and input shares it: an entry is found by its content
    // identity (the input's digest, then each op's name and params), so
    // re-running this example resumes instantly from the cached state.
    let mut recipe = recipes::commoncrawl_refine();
    let cache_dir = std::env::temp_dir().join("dj-example-pretrain-cache");
    let cache = CacheManager::new(&cache_dir, CacheMode::Cache);
    let options = ExecOptions {
        num_workers: 4,
        op_fusion: true,
        ..ExecOptions::default()
    };
    let build = |recipe: &Recipe| -> Result<Executor> {
        let exec = executor_from_recipe(recipe, &builtin_registry(), true)?;
        Ok(exec.with_options(options.clone()))
    };
    let (mut refined, report) = build(&recipe)?.run_with_cache(raw.clone(), &cache)?;
    println!(
        "\nrefinement: {} -> {} docs in {:.2?} ({} steps resumed from cache)",
        report.initial_samples,
        refined.len(),
        report.total_duration,
        report.resumed_steps
    );

    // Refine one parameter and re-run (step 3): the MinHash dedup is the
    // recipe's last op, so every stage before it resumes from the cache and
    // only its own stage re-executes.
    let threshold = "jaccard_threshold";
    recipe.set_param("document_minhash_deduplicator", threshold, 0.8.into())?;
    let edited = build(&recipe)?;
    let (round2, report2) = edited.run_with_cache(raw.clone(), &cache)?;
    let before_edit = edited.plan().steps.len() - 1;
    println!(
        "round 2 ({threshold} 0.7 -> 0.8): {} docs in {:.2?} ({} steps resumed from cache)",
        round2.len(),
        report2.total_duration,
        report2.resumed_steps
    );
    assert!(
        report2.resumed_steps >= before_edit,
        "every stage before the edited dedup resumes"
    );

    // Compare distributions (step 4).
    let probe_after = Analyzer::new().probe(&mut refined);
    print!(
        "\n{}",
        visualize::diff_histogram(
            "word_rep_ratio before(▒) / after(█)",
            &probe_before.columns["word_rep_ratio"],
            &probe_after.columns["word_rep_ratio"],
            10,
            22,
        )
    );

    // Score both datasets with the proxy evaluator at equal token budget.
    let llm = ProxyLlm::new();
    let p_raw = measure_profile(&mut raw, 2.0e6);
    let p_ref = measure_profile(&mut refined, 2.0e6);
    let s_raw = llm.evaluate("raw", &p_raw, 100.0).average();
    let s_ref = llm.evaluate("refined", &p_ref, 100.0).average();
    println!("proxy avg score @100B tokens: raw {s_raw:.2} vs refined {s_ref:.2}");
    assert!(s_ref > s_raw, "refined data must evaluate better");
    println!("\nrefined data wins at equal budget — the paper's Fig. 7 effect.");
    Ok(())
}
