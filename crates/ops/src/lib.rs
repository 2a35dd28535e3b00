//! # dj-ops — the standardized operator pool (paper §3)
//!
//! 50+ composable OPs in the four categories of Table 1:
//!
//! * [`formatters`] — unify raw payloads (JSONL, txt, CSV/TSV, Markdown,
//!   HTML, LaTeX, code) into the intermediate representation;
//! * [`mappers`] — in-place text editing (cleaning, normalization, repair);
//! * [`filters`] — conditional removal driven by recorded per-sample stats,
//!   including model-backed filters (language id, perplexity, quality score);
//! * [`dedup`] — exact, MinHash-LSH, SimHash and paragraph-level
//!   deduplication with deterministic first-occurrence retention;
//! * [`registry`] — the name → factory table recipes resolve against;
//! * [`models`] — shared lazily-trained default auxiliary models.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dedup;
pub mod filters;
pub mod formatters;
pub mod mappers;
pub mod models;
pub mod par_dedup;
pub mod registry;

pub use dedup::{
    run_dedup, DocumentDeduplicator, MinHashDeduplicator, ParagraphDeduplicator,
    SimHashDeduplicator,
};
pub use par_dedup::ParallelDedup;
pub use registry::builtin_registry;

/// Names of the formatter OPs (registered separately from the
/// mapper/filter/dedup registry because they construct datasets rather
/// than transform them).
pub fn formatter_names() -> Vec<&'static str> {
    vec![
        "jsonl_formatter",
        "text_formatter",
        "csv_formatter",
        "tsv_formatter",
        "md_formatter",
        "html_formatter",
        "tex_formatter",
        "code_formatter",
    ]
}

/// Build a formatter by name (with default settings).
pub fn build_formatter(name: &str) -> dj_core::Result<Box<dyn dj_core::Formatter>> {
    use formatters::*;
    Ok(match name {
        "jsonl_formatter" => Box::new(JsonlFormatter::new()),
        "text_formatter" => Box::new(TextFormatter::new()),
        "csv_formatter" => Box::new(CsvFormatter::csv("text")),
        "tsv_formatter" => Box::new(CsvFormatter::tsv("text")),
        "md_formatter" => Box::new(MarkdownFormatter::new()),
        "html_formatter" => Box::new(HtmlFormatter::new()),
        "tex_formatter" => Box::new(LatexFormatter::new()),
        "code_formatter" => Box::new(CodeFormatter::new()),
        other => {
            return Err(dj_core::DjError::Config(format!(
                "unknown formatter `{other}`"
            )))
        }
    })
}
