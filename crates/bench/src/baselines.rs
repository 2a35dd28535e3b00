//! Baseline data-processing systems for the end-to-end comparison (Fig. 8).
//!
//! The paper benchmarks against TogetherAI's RedPajama scripts and AllenAI's
//! Dolma toolkit. We reproduce their *cost structures* (Appendix B.3.4), not
//! their Python constant factors:
//!
//! * [`RedPajamaStyle`] — monolithic per-dataset scripts: the whole dataset
//!   is materialized as per-sample dictionaries, every step produces a new
//!   full copy (no in-place editing, no shared contexts, no fusion), and
//!   the working set holds input + output simultaneously — the memory
//!   behaviour §7.2.1 calls out ("loads the whole dataset at once").
//! * [`DolmaStyle`] — tagger-then-filter architecture: a first pass writes
//!   every statistic to separate attribute records (requiring pre-sharded
//!   input), a second pass joins attributes back to documents to filter,
//!   and a final mixing pass rebuilds the dataset. Three materializations,
//!   re-tokenizing per tagger.
//!
//! Both baselines implement the *same semantic pipeline* as the
//! Data-Juicer executor they are compared with, verified by equivalence
//! tests.

use std::collections::HashMap;

use dj_core::{CharCounts, Dataset, SampleContext};
use dj_hash::hash128;
use dj_text::lexicon;
use dj_text::normalize;
use dj_text::stats as tstats;

/// Word 5-gram repetition the way the baselines compute everything: from a
/// tokenization of its own, shared with no other predicate.
fn word_rep_ratio(text: &str, rep_len: usize) -> f64 {
    let mut ctx = SampleContext::new();
    let (words, scratch) = ctx.words_and_scratch(text);
    tstats::word_rep_ratio(words, rep_len, scratch)
}

/// The matched pipeline parameters shared by every system in Fig. 8.
#[derive(Debug, Clone, Copy)]
pub struct MatchedPipeline {
    pub min_len: usize,
    pub max_len: usize,
    pub min_words: usize,
    pub min_alnum: f64,
    pub max_special: f64,
    pub max_word_rep: f64,
    pub rep_len: usize,
}

impl Default for MatchedPipeline {
    fn default() -> Self {
        MatchedPipeline {
            min_len: 40,
            max_len: 1_000_000,
            min_words: 8,
            min_alnum: 0.25,
            max_special: 0.3,
            max_word_rep: 0.4,
            rep_len: 5,
        }
    }
}

/// Peak-memory + output of a baseline run.
pub struct BaselineRun {
    pub output: Dataset,
    /// Approximate peak heap bytes of the system's working structures.
    pub peak_bytes: usize,
}

/// A "document" in the baseline systems: a string-keyed dictionary, the
/// plain-`dict` representation §2.2 criticizes.
type DictDoc = HashMap<String, String>;

fn to_dicts(dataset: &Dataset) -> Vec<DictDoc> {
    dataset
        .iter()
        .map(|s| {
            let mut d = DictDoc::new();
            d.insert("text".to_string(), s.text().to_string());
            d
        })
        .collect()
}

fn dicts_bytes(docs: &[DictDoc]) -> usize {
    docs.iter()
        .map(|d| {
            d.iter()
                .map(|(k, v)| k.capacity() + v.capacity() + 96) // dict-entry overhead
                .sum::<usize>()
                + 64
        })
        .sum()
}

fn from_dicts(docs: Vec<DictDoc>) -> Dataset {
    Dataset::from_texts(
        docs.into_iter()
            .map(|mut d| d.remove("text").unwrap_or_default()),
    )
}

/// RedPajama-style monolithic processing.
pub struct RedPajamaStyle {
    pub params: MatchedPipeline,
}

impl RedPajamaStyle {
    pub fn new(params: MatchedPipeline) -> Self {
        RedPajamaStyle { params }
    }

    pub fn run(&self, dataset: &Dataset) -> BaselineRun {
        let p = self.params;
        // Load everything into dict docs.
        let docs = to_dicts(dataset);
        let mut peak = dicts_bytes(&docs);

        // Step 1: whitespace normalization — NEW full copy.
        let cleaned: Vec<DictDoc> = docs
            .iter()
            .map(|d| {
                let mut nd = d.clone();
                let t = normalize::normalize_whitespace(
                    d.get("text").map(String::as_str).unwrap_or(""),
                );
                nd.insert("text".into(), t.into_owned());
                nd
            })
            .collect();
        peak = peak.max(dicts_bytes(&docs) + dicts_bytes(&cleaned));
        drop(docs);

        // Step 2: link removal — another full copy.
        let delinked: Vec<DictDoc> = cleaned
            .iter()
            .map(|d| {
                let mut nd = d.clone();
                let t = normalize::remove_links(d.get("text").map(String::as_str).unwrap_or(""));
                nd.insert("text".into(), t.into_owned());
                nd
            })
            .collect();
        peak = peak.max(dicts_bytes(&cleaned) + dicts_bytes(&delinked));
        drop(cleaned);

        // Step 3: filters — each recomputes its own tokenization; a fresh
        // surviving copy is built.
        let survivors: Vec<DictDoc> = delinked
            .iter()
            .filter(|d| {
                let t = d.get("text").map(String::as_str).unwrap_or("");
                let chars = t.chars().count();
                if chars < p.min_len || chars > p.max_len {
                    return false;
                }
                // Re-tokenizes once per predicate: no context sharing.
                if dj_core::segment_words(t).len() < p.min_words {
                    return false;
                }
                if CharCounts::of(t).alnum_ratio() < p.min_alnum {
                    return false;
                }
                if CharCounts::of(t).special_ratio() > p.max_special {
                    return false;
                }
                if word_rep_ratio(t, p.rep_len) > p.max_word_rep {
                    return false;
                }
                true
            })
            .cloned()
            .collect();
        peak = peak.max(dicts_bytes(&delinked) + dicts_bytes(&survivors));
        drop(delinked);

        // Step 4: exact dedup via a separate hash set + another copy.
        let mut seen = dj_hash::FxHashSet::default();
        let deduped: Vec<DictDoc> = survivors
            .iter()
            .filter(|d| {
                seen.insert(hash128(
                    d.get("text").map(String::as_str).unwrap_or("").as_bytes(),
                ))
            })
            .cloned()
            .collect();
        peak = peak.max(dicts_bytes(&survivors) + dicts_bytes(&deduped));

        BaselineRun {
            output: from_dicts(deduped),
            peak_bytes: peak,
        }
    }
}

/// Dolma-style tagger → filter → mix processing.
pub struct DolmaStyle {
    pub params: MatchedPipeline,
    /// Dolma requires pre-sharded input.
    pub shards: usize,
}

impl DolmaStyle {
    pub fn new(params: MatchedPipeline, shards: usize) -> Self {
        DolmaStyle {
            params,
            shards: shards.max(1),
        }
    }

    pub fn run(&self, dataset: &Dataset) -> BaselineRun {
        let p = self.params;
        // Phase 0: shard the input (extra materialization Dolma mandates).
        let shards = dataset.clone().partition(self.shards);
        let mut peak = dataset.approx_bytes() * 2;

        // Phase 1: taggers — every attribute written to a separate record
        // store, one tokenization per tagger.
        type TaggedShard = (Vec<DictDoc>, Vec<HashMap<String, f64>>);
        let mut tagged_shards: Vec<TaggedShard> = Vec::new();
        for shard in &shards {
            let docs = to_dicts(shard);
            let attrs: Vec<HashMap<String, f64>> = docs
                .iter()
                .map(|d| {
                    let t = d
                        .get("text")
                        .map(|s| {
                            normalize::normalize_whitespace(&normalize::remove_links(s))
                                .into_owned()
                        })
                        .unwrap_or_default();
                    let mut a = HashMap::new();
                    a.insert("len".to_string(), t.chars().count() as f64);
                    a.insert("words".to_string(), dj_core::segment_words(&t).len() as f64);
                    a.insert("alnum".to_string(), CharCounts::of(&t).alnum_ratio());
                    a.insert("special".to_string(), CharCounts::of(&t).special_ratio());
                    a.insert("word_rep".to_string(), word_rep_ratio(&t, p.rep_len));
                    // The flagged-words tagger tokenizes yet again.
                    let flagged = lexicon::flagged_words();
                    a.insert(
                        "flagged".to_string(),
                        tstats::lexicon_ratio(SampleContext::new().words(&t), &flagged),
                    );
                    a
                })
                .collect();
            let attr_bytes: usize = attrs.len() * 6 * 48;
            peak = peak.max(dicts_bytes(&docs) * 2 + attr_bytes);
            tagged_shards.push((docs, attrs));
        }

        // Phase 2: filter pass joins attributes back to documents.
        let mut kept: Vec<DictDoc> = Vec::new();
        for (docs, attrs) in &tagged_shards {
            for (d, a) in docs.iter().zip(attrs) {
                let len = a["len"] as usize;
                if len < p.min_len || len > p.max_len {
                    continue;
                }
                if (a["words"] as usize) < p.min_words {
                    continue;
                }
                if a["alnum"] < p.min_alnum || a["special"] > p.max_special {
                    continue;
                }
                if a["word_rep"] > p.max_word_rep {
                    continue;
                }
                // Apply the mappers now (Dolma taggers don't rewrite docs).
                let mut nd = d.clone();
                let t = nd.get("text").cloned().unwrap_or_default();
                nd.insert(
                    "text".into(),
                    normalize::normalize_whitespace(&normalize::remove_links(&t)).into_owned(),
                );
                kept.push(nd);
            }
        }
        peak = peak.max(
            tagged_shards
                .iter()
                .map(|(d, _)| dicts_bytes(d))
                .sum::<usize>()
                + dicts_bytes(&kept),
        );
        drop(tagged_shards);

        // Phase 3: dedup + mix into the final dataset.
        let mut seen = dj_hash::FxHashSet::default();
        kept.retain(|d| {
            seen.insert(hash128(
                d.get("text").map(String::as_str).unwrap_or("").as_bytes(),
            ))
        });
        BaselineRun {
            output: from_dicts(kept),
            peak_bytes: peak,
        }
    }
}

/// The equivalent Data-Juicer recipe for the matched pipeline.
pub fn matched_dj_ops(p: MatchedPipeline) -> Vec<dj_core::Op> {
    use dj_config::{OpSpec, Recipe};
    let recipe = Recipe::new("fig8-matched")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", p.min_len as f64)
                .with("max_len", p.max_len as f64),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", p.min_words as f64)
                .with("max_num", 1e9),
        )
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", p.min_alnum)
                .with("max_ratio", 1.0),
        )
        .then(
            OpSpec::new("special_characters_filter")
                .with("min_ratio", 0.0)
                .with("max_ratio", p.max_special),
        )
        .then(
            OpSpec::new("word_repetition_filter")
                .with("rep_len", p.rep_len as i64)
                .with("min_ratio", 0.0)
                .with("max_ratio", p.max_word_rep),
        )
        .then(OpSpec::new("document_deduplicator"));
    recipe
        .build_ops(&dj_ops::builtin_registry())
        .expect("matched recipe is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_exec::{ExecOptions, Executor};

    fn workload() -> Dataset {
        dj_synth::web_corpus(42, 150, dj_synth::WebNoise::default())
    }

    #[test]
    fn all_three_systems_agree_on_output() {
        let p = MatchedPipeline::default();
        let data = workload();
        let rp = RedPajamaStyle::new(p).run(&data);
        let dolma = DolmaStyle::new(p, 4).run(&data);
        let dj = Executor::new(matched_dj_ops(p))
            .with_options(ExecOptions {
                num_workers: 1,
                op_fusion: true,
                shard_size: None,
                ..ExecOptions::default()
            })
            .run(data.clone())
            .unwrap()
            .0;
        let texts = |d: &Dataset| d.iter().map(|s| s.text().to_string()).collect::<Vec<_>>();
        assert_eq!(texts(&rp.output), texts(&dj));
        assert_eq!(texts(&dolma.output), texts(&dj));
        assert!(dj.len() < data.len(), "pipeline actually filters");
    }

    #[test]
    fn baselines_use_more_memory_than_dj() {
        let p = MatchedPipeline::default();
        let data = workload();
        let rp = RedPajamaStyle::new(p).run(&data);
        let (_, report) = Executor::new(matched_dj_ops(p)).run(data.clone()).unwrap();
        assert!(
            rp.peak_bytes > report.peak_bytes,
            "redpajama {} !> dj {}",
            rp.peak_bytes,
            report.peak_bytes
        );
    }
}
