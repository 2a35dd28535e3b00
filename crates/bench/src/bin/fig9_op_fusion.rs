//! Fig. 9 — time before/after OP fusion on the 14-OP recipe (5 Mappers,
//! 8 Filters, 1 Deduplicator; the WORDS/CHARS-sharing filters fusible),
//! across three dataset sizes and a higher worker count on the largest.
//!
//! Paper reference: fusion saves up to 24.91% of total time and up to
//! 42.04% of the fusible-OP time, across all sizes and process counts.

use std::time::Instant;

use dj_bench::section;
use dj_config::{OpSpec, Recipe};
use dj_core::Dataset;
use dj_exec::{ExecOptions, Executor};
use dj_synth::{web_corpus, WebNoise};

fn fig9_recipe() -> Recipe {
    Recipe::new("fig9")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(OpSpec::new("clean_email_mapper"))
        .then(OpSpec::new("remove_long_words_mapper").with("max_len", 40i64))
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", 0.2)
                .with("max_ratio", 1.0),
        )
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 20.0)
                .with("max_len", 1e9),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 5.0)
                .with("max_num", 1e9),
        )
        .then(
            OpSpec::new("word_repetition_filter")
                .with("rep_len", 5i64)
                .with("max_ratio", 0.5),
        )
        .then(OpSpec::new("stopwords_filter").with("min_ratio", 0.02))
        .then(OpSpec::new("flagged_words_filter").with("max_ratio", 0.05))
        .then(OpSpec::new("special_characters_filter").with("max_ratio", 0.4))
        .then(
            OpSpec::new("average_line_length_filter")
                .with("min_len", 5.0)
                .with("max_len", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
}

/// Wall time plus the time spent in the fusible filters: the four that
/// share the WORDS view and the three that share the one-pass CHARS view.
fn run(data: Dataset, np: usize, fusion: bool) -> (f64, f64, usize) {
    const FUSIBLE: [&str; 7] = [
        "word_num_filter",
        "word_repetition_filter",
        "stopwords_filter",
        "flagged_words_filter",
        "alphanumeric_ratio_filter",
        "text_length_filter",
        "special_characters_filter",
    ];
    let ops = fig9_recipe()
        .build_ops(&dj_ops::builtin_registry())
        .expect("recipe valid");
    let exec = Executor::new(ops).with_options(ExecOptions {
        num_workers: np,
        op_fusion: fusion,
        shard_size: None,
        ..ExecOptions::default()
    });
    let t0 = Instant::now();
    let (out, report) = exec.run(data).expect("pipeline runs");
    let total = t0.elapsed().as_secs_f64();
    let fusible: f64 = report
        .ops
        .iter()
        .filter(|r| FUSIBLE.iter().any(|f| r.name.contains(f)))
        .map(|r| r.duration.as_secs_f64())
        .sum();
    (total, fusible, out.len())
}

fn main() {
    section("Figure 9: time before/after OP fusion (14-OP recipe)");
    let configs: Vec<(&str, usize, usize)> = vec![
        ("small", 400, 2),
        ("medium", 1500, 2),
        ("large", 5000, 2),
        ("large-np8", 5000, 8),
    ];

    println!(
        "{:<10} {:>3} {:>12} {:>12} {:>8} {:>14} {:>14} {:>8}",
        "dataset",
        "np",
        "total-unf(s)",
        "total-fus(s)",
        "saved%",
        "fusible-unf(s)",
        "fusible-fus(s)",
        "saved%"
    );
    let mut any_total_saving = false;
    for (name, docs, np) in configs {
        let data = web_corpus(500, docs, WebNoise::default());
        // Warm the shared lazy models outside the timed region.
        let _ = run(data.take(5), 1, true);
        let (t_unf, f_unf, n_unf) = run(data.clone(), np, false);
        let (t_fus, f_fus, n_fus) = run(data, np, true);
        assert_eq!(n_unf, n_fus, "fusion must not change the output");
        let total_saved = (1.0 - t_fus / t_unf.max(1e-12)) * 100.0;
        let fusible_saved = (1.0 - f_fus / f_unf.max(1e-12)) * 100.0;
        any_total_saving |= total_saved > 0.0;
        println!(
            "{name:<10} {np:>3} {t_unf:>12.3} {t_fus:>12.3} {total_saved:>7.1}% {f_unf:>14.4} {f_fus:>14.4} {fusible_saved:>7.1}%"
        );
    }
    println!("\npaper reference: up to 24.91% total time saved, up to 42.04% on fusible OPs");
    assert!(
        any_total_saving,
        "fusion must save total time on at least one configuration"
    );
    println!("shape check PASSED: fusion saves time, outputs unchanged");
}
