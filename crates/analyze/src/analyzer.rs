//! The analyzer tool (paper §4.2): whole-dataset statistical summaries.
//!
//! "By default, the summary of per-sample statistics covers 13 dimensions
//! and automatically displays histograms and box plots for each statistical
//! variable." This module measures those dimensions with the built-in
//! filters' own `compute_stats` — one definition of each statistic, shared
//! by the processing and the analysis side — records them into each
//! sample's `stats` column, and summarizes every column with count / mean /
//! std / min / max / quantiles / entropy.

use std::collections::BTreeMap;
use std::sync::Arc;

use dj_core::{Dataset, Filter, Op, OpParams, SampleContext, Value};
use dj_hash::FxHashMap;
use dj_text::lexicon;

/// The 13 default analyzer dimensions.
pub const DEFAULT_DIMENSIONS: [&str; 13] = [
    "text_len",
    "word_count",
    "avg_word_length",
    "alnum_ratio",
    "special_char_ratio",
    "whitespace_ratio",
    "digit_ratio",
    "char_rep_ratio",
    "word_rep_ratio",
    "stopword_ratio",
    "flagged_word_ratio",
    "paragraph_count",
    "word_entropy",
];

/// The built-in filters whose stat is one of `dims`, built on `field` with
/// their defaults, except that `word_repetition_filter` measures at
/// `rep_len` 5.
fn measuring_filters(dims: &[String], field: &str) -> Vec<Arc<dyn Filter>> {
    let registry = dj_ops::builtin_registry();
    let defaults = OpParams::from([
        ("field".to_string(), Value::from(field)),
        ("rep_len".to_string(), Value::Int(5)),
    ]);
    let build = |op| registry.build_with_defaults(op, &OpParams::new(), &defaults);
    registry
        .names()
        .into_iter()
        .filter_map(|op| match build(op) {
            Ok(Op::Filter(f)) if dims.iter().any(|d| d == f.stats_key()) => Some(f),
            _ => None,
        })
        .collect()
}

/// Summary statistics of one numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    pub count: usize,
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
    pub q25: f64,
    pub median: f64,
    pub q75: f64,
    /// Shannon entropy (bits) of a 32-bin histogram of the column.
    pub entropy: f64,
}

impl ColumnSummary {
    /// Summarize a value vector. Returns `None` for empty input.
    pub fn from_values(values: &[f64]) -> Option<ColumnSummary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        Some(ColumnSummary {
            count: n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            q25: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q75: quantile(&sorted, 0.75),
            entropy: histogram_entropy(&sorted, 32),
        })
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn histogram_entropy(sorted: &[f64], bins: usize) -> f64 {
    let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
    if (max - min).abs() < f64::EPSILON {
        return 0.0;
    }
    let mut counts = vec![0usize; bins];
    for &v in sorted {
        let idx = (((v - min) / (max - min)) * bins as f64) as usize;
        counts[idx.min(bins - 1)] += 1;
    }
    let n = sorted.len() as f64;
    -counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>()
}

/// A dataset-level probe: per-dimension summaries plus the verb-noun
/// diversity distribution (the pie plots of Fig. 5).
#[derive(Debug, Clone)]
pub struct DataProbe {
    pub summaries: BTreeMap<String, ColumnSummary>,
    /// Raw per-dimension columns (for histograms / diff plots).
    pub columns: BTreeMap<String, Vec<f64>>,
    /// `(verb, object) → count`, sorted descending.
    pub verb_noun: Vec<((String, String), usize)>,
    pub sample_count: usize,
}

/// One entry of the Fig. 5 two-ring pie: a verb, its count, and its top
/// direct objects with counts.
pub type VerbObjects = (String, usize, Vec<(String, usize)>);

impl DataProbe {
    /// Top root verbs with their top direct objects (Fig. 5's two-ring pie).
    pub fn top_verbs(&self, top_n: usize, objects_per_verb: usize) -> Vec<VerbObjects> {
        let mut by_verb: BTreeMap<&str, (usize, BTreeMap<&str, usize>)> = BTreeMap::new();
        for ((v, o), c) in &self.verb_noun {
            let e = by_verb.entry(v).or_default();
            e.0 += c;
            *e.1.entry(o).or_default() += c;
        }
        let mut verbs: Vec<_> = by_verb.into_iter().collect();
        verbs.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
        verbs
            .into_iter()
            .take(top_n)
            .map(|(v, (count, objs))| {
                let mut os: Vec<_> = objs.into_iter().collect();
                os.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                (
                    v.to_string(),
                    count,
                    os.into_iter()
                        .take(objects_per_verb)
                        .map(|(o, c)| (o.to_string(), c))
                        .collect(),
                )
            })
            .collect()
    }

    /// Diversity score: Shannon entropy of the verb-noun distribution.
    pub fn verb_noun_entropy(&self) -> f64 {
        let total: usize = self.verb_noun.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        -self
            .verb_noun
            .iter()
            .map(|(_, c)| {
                let p = *c as f64 / total as f64;
                p * p.log2()
            })
            .sum::<f64>()
    }
}

/// The analyzer: computes dimensions and builds [`DataProbe`]s.
pub struct Analyzer {
    /// Which dimensions to compute (defaults to all 13).
    pub dimensions: Vec<String>,
    /// Field to analyze.
    pub field: String,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer {
            dimensions: DEFAULT_DIMENSIONS.iter().map(|s| s.to_string()).collect(),
            field: "text".to_string(),
        }
    }
}

impl Analyzer {
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Restrict to a subset of dimensions ("users also have the flexibility
    /// to adjust the dimensions to observe").
    pub fn with_dimensions(mut self, dims: &[&str]) -> Analyzer {
        self.dimensions = dims.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Analyze the dataset: measure and record per-sample stats, and
    /// summarize.
    ///
    /// Every dimension that is a built-in filter's stat is measured again,
    /// with that filter's `compute_stats`, replacing any value recorded
    /// under its name. A dimension no filter measures is read where it is
    /// recorded.
    pub fn probe(&self, dataset: &mut Dataset) -> DataProbe {
        let verbs = lexicon::common_verbs();
        let nouns = lexicon::common_nouns();
        let filters = measuring_filters(&self.dimensions, &self.field);
        let mut columns: BTreeMap<String, Vec<f64>> = self
            .dimensions
            .iter()
            .map(|d| (d.clone(), Vec::with_capacity(dataset.len())))
            .collect();
        let mut verb_noun: FxHashMap<(String, String), usize> = FxHashMap::default();
        let mut ctx = SampleContext::new();
        let field = self.field.clone();
        for sample in dataset.samples_mut() {
            ctx.invalidate();
            for f in &filters {
                f.compute_stats(sample, &mut ctx)
                    .expect("a built-in filter measures every sample");
            }
            for dim in &self.dimensions {
                if let Some(v) = sample.stat(dim) {
                    columns.get_mut(dim).expect("dim registered").push(v);
                }
            }
            let words = ctx.words(sample.text_at(&field));
            for pair in lexicon::verb_noun_pairs(words, &verbs, &nouns) {
                *verb_noun.entry(pair).or_insert(0) += 1;
            }
        }
        let summaries = columns
            .iter()
            .filter_map(|(k, v)| ColumnSummary::from_values(v).map(|s| (k.clone(), s)))
            .collect();
        let mut vn: Vec<_> = verb_noun.into_iter().collect();
        vn.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        DataProbe {
            summaries,
            columns,
            verb_noun: vn,
            sample_count: dataset.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::Sample;

    fn dataset() -> Dataset {
        Dataset::from_texts([
            "Write a story about the budget committee and explain the plan in detail.",
            "The research method improves the accuracy of the analysis considerably.",
            "spam spam spam spam spam spam",
            "Short.",
        ])
    }

    #[test]
    fn probe_covers_all_13_dimensions() {
        let mut ds = dataset();
        let probe = Analyzer::new().probe(&mut ds);
        assert_eq!(probe.sample_count, 4);
        for dim in DEFAULT_DIMENSIONS {
            assert!(probe.summaries.contains_key(dim), "missing {dim}");
            assert_eq!(probe.columns[dim].len(), 4);
        }
        // Stats were recorded on the samples.
        assert_eq!(ds.get(0).unwrap().stat("word_count"), Some(13.0));
    }

    #[test]
    fn summary_statistics_are_correct() {
        let s = ColumnSummary::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert!((s.median - 3.0).abs() < 1e-9);
        assert!((s.q25 - 2.0).abs() < 1e-9);
        assert!((s.q75 - 4.0).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn summary_handles_edge_cases() {
        assert!(ColumnSummary::from_values(&[]).is_none());
        assert!(ColumnSummary::from_values(&[f64::INFINITY]).is_none());
        let s = ColumnSummary::from_values(&[7.0]).unwrap();
        assert_eq!(s.median, 7.0);
        assert_eq!(s.entropy, 0.0); // constant column
    }

    #[test]
    fn existing_stats_are_measured_again() {
        let mut ds = Dataset::from_samples(vec![{
            let mut s = Sample::from_text("three little words");
            s.set_stat("word_count", 99.0); // recorded, wrong on purpose
            s.set_stat("custom", 7.0); // no filter measures it: read as is
            s
        }]);
        let probe = Analyzer::new()
            .with_dimensions(&["word_count", "custom"])
            .probe(&mut ds);
        assert_eq!(probe.columns["word_count"], vec![3.0]);
        assert_eq!(probe.columns["custom"], vec![7.0]);
        assert_eq!(ds.get(0).unwrap().stat("word_count"), Some(3.0));
    }

    #[test]
    fn every_default_dimension_is_one_filters_stat() {
        let dims: Vec<String> = DEFAULT_DIMENSIONS.iter().map(|d| d.to_string()).collect();
        let mut keys: Vec<&str> = measuring_filters(&dims, "text")
            .iter()
            .map(|f| f.stats_key())
            .collect();
        keys.sort_unstable();
        let mut expected = DEFAULT_DIMENSIONS;
        expected.sort_unstable();
        assert_eq!(keys, expected);
    }

    /// The probe reads what the analyzer's own formulas read before it
    /// measured with the filters: `rep_len` 5, `ngram` 10, the stock
    /// lexicons.
    #[test]
    fn a_probe_reads_the_formulas_it_always_read() {
        use dj_text::stats as tstats;
        let text = "the cat sat on the mat and the cat sat on the mat again, 42 times.\n\nOK";
        let mut ds = Dataset::from_texts([text]);
        let probe = Analyzer::new().probe(&mut ds);
        let mut ctx = SampleContext::new();
        let (words, scratch) = ctx.words_and_scratch(text);
        let word_rep = tstats::word_rep_ratio(words, 5, scratch);
        let char_rep = tstats::char_rep_ratio(text, 10, ctx.scratch());
        let stop = tstats::lexicon_ratio(ctx.words(text), &lexicon::english_stopwords());
        let chars = ctx.chars(text);
        let expected = [
            ("text_len", chars.chars as f64),
            ("alnum_ratio", chars.alnum_ratio()),
            ("digit_ratio", chars.digit_ratio()),
            ("word_rep_ratio", word_rep),
            ("char_rep_ratio", char_rep),
            ("stopword_ratio", stop),
            ("paragraph_count", tstats::paragraph_count(text) as f64),
        ];
        for (dim, v) in expected {
            assert_eq!(probe.columns[dim], vec![v], "{dim}");
        }
        assert!(word_rep > 0.0);
    }

    #[test]
    fn verb_noun_diversity_extracted() {
        let mut ds = Dataset::from_texts([
            "Write a story about dragons",
            "Write a poem about spring",
            "Explain the plan to the team",
        ]);
        let probe = Analyzer::new().probe(&mut ds);
        assert!(!probe.verb_noun.is_empty());
        let tops = probe.top_verbs(2, 2);
        assert_eq!(tops[0].0, "write");
        assert_eq!(tops[0].1, 2);
        assert!(probe.verb_noun_entropy() > 0.0);
    }

    #[test]
    fn custom_dimension_subset() {
        let mut ds = dataset();
        let probe = Analyzer::new()
            .with_dimensions(&["text_len", "word_count"])
            .probe(&mut ds);
        assert_eq!(probe.summaries.len(), 2);
        assert_eq!(ds.get(0).unwrap().stat("alnum_ratio"), None);
    }

    #[test]
    fn empty_dataset_probe() {
        let mut ds = Dataset::new();
        let probe = Analyzer::new().probe(&mut ds);
        assert!(probe.summaries.is_empty());
        assert_eq!(probe.sample_count, 0);
        assert_eq!(probe.verb_noun_entropy(), 0.0);
    }
}
