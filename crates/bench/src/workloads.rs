//! Shared experiment workloads: the synthetic stand-ins for the paper's
//! corpora at laptop scale, plus the recipe-driven "refinement" runs the
//! quality experiments (Fig. 7 / Tables 2-3) consume.

use dj_config::recipes;
use dj_core::{Dataset, Result};
use dj_exec::{ExecOptions, Executor};
use dj_synth::{
    arxiv_corpus, book_corpus, chinese_corpus, code_corpus, dialog_corpus, web_corpus, wiki_corpus,
    WebNoise,
};

/// Scale knob: number of base documents per source. The default keeps every
/// harness under a few seconds; raise it for stress runs.
pub const DEFAULT_SCALE: usize = 300;

/// The "RedPajama-like" mixture: web-heavy, moderately noisy.
pub fn redpajama_like(seed: u64, scale: usize) -> Dataset {
    let mut ds = web_corpus(seed, scale * 2, WebNoise::default());
    ds.extend(wiki_corpus(seed + 1, scale / 2));
    ds.extend(book_corpus(seed + 2, scale / 20 + 1));
    ds.extend(code_corpus(seed + 3, scale / 2));
    ds.extend(arxiv_corpus(seed + 4, scale / 3));
    ds.extend(dialog_corpus(seed + 5, scale / 2));
    ds
}

/// The "RedPajama + Pile" mixture: adds more curated academic/dialog text.
pub fn redpajama_plus_pile(seed: u64, scale: usize) -> Dataset {
    let mut ds = redpajama_like(seed, scale);
    ds.extend(wiki_corpus(seed + 10, scale / 2));
    ds.extend(arxiv_corpus(seed + 11, scale / 3));
    ds.extend(dialog_corpus(seed + 12, scale / 2));
    ds.extend(book_corpus(seed + 13, scale / 20 + 1));
    ds
}

/// Run the Data-Juicer refinement recipe over a mixture (the
/// `pretrain-commoncrawl-refine` pipeline of the recipe catalog).
pub fn dj_refine(dataset: Dataset, np: usize) -> Result<Dataset> {
    let recipe = recipes::commoncrawl_refine();
    let ops = recipe.build_ops(&dj_ops::builtin_registry())?;
    let (out, _) = Executor::new(ops)
        .with_options(ExecOptions {
            num_workers: np,
            op_fusion: true,
            shard_size: None,
            ..ExecOptions::default()
        })
        .run(dataset)?;
    Ok(out)
}

/// Chinese fine-tuning pool (Belle-like: large, junky).
pub fn belle_like(seed: u64, scale: usize) -> Dataset {
    chinese_corpus(seed, scale * 4, 0.35)
}

/// Books/arXiv/C4-style datasets for the Fig. 8 end-to-end comparison,
/// matching the paper's size ordering (Books ≫ arXiv > C4 per-doc size;
/// C4 has the most documents).
pub fn fig8_books(scale: usize) -> Dataset {
    book_corpus(80, scale / 4 + 2)
}

pub fn fig8_arxiv(scale: usize) -> Dataset {
    arxiv_corpus(81, scale)
}

pub fn fig8_c4(scale: usize) -> Dataset {
    web_corpus(82, scale * 3, WebNoise::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixtures_are_heterogeneous() {
        let ds = redpajama_like(1, 60);
        let sources: std::collections::BTreeSet<String> = ds
            .iter()
            .filter_map(|s| s.meta("source").and_then(|v| v.as_str()).map(String::from))
            .collect();
        assert!(sources.len() >= 5, "sources: {sources:?}");
        assert!(redpajama_plus_pile(1, 60).len() > ds.len());
    }

    #[test]
    fn refinement_shrinks_and_cleans() {
        let raw = redpajama_like(3, 80);
        let raw_len = raw.len();
        let refined = dj_refine(raw, 2).unwrap();
        assert!(refined.len() < raw_len);
        assert!(!refined.is_empty());
        // No flagged tokens survive the refinement.
        assert!(refined.iter().all(|s| !s.text().contains("flagged")));
    }
}
