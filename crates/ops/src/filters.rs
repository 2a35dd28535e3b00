//! Filter OPs: conditional text removal driven by recorded statistics
//! (Table 1). Every filter measures its statistic and writes it into
//! `sample.stats` in `compute_stats`, every time, and decides from the
//! recorded value in `process` — the stats/decision decoupling of §3.2.
//!
//! `compute_stats` never copies the text it reads: it borrows the field,
//! computes the value from the context's shared views, and records the
//! stat once the borrow has ended (`record_stat`).

use std::sync::Arc;

use dj_core::{
    ContextNeeds, DjError, FieldSet, Filter, OpCost, Result, Sample, SampleContext, META_KEY,
    STATS_KEY, TEXT_KEY,
};
use dj_hash::FxHashSet;
use dj_ml::QualityClassifier;
use dj_text::lexicon;
use dj_text::stats as tstats;
use dj_text::{LangIdModel, NgramModel};

use crate::models;

/// Inclusive numeric range used by threshold filters.
#[derive(Debug, Clone, Copy)]
pub struct RangeBound {
    pub min: f64,
    pub max: f64,
}

impl RangeBound {
    pub fn new(min: f64, max: f64) -> Result<RangeBound> {
        if min > max {
            return Err(DjError::Config(format!(
                "invalid range: min {min} > max {max}"
            )));
        }
        Ok(RangeBound { min, max })
    }

    pub fn contains(&self, v: f64) -> bool {
        v >= self.min && v <= self.max
    }
}

/// Stats-driven filters read their configured text field plus the `stats`
/// column (`process` decides from it) and write only into `stats` — the
/// footprint the columnar executor projects on.
macro_rules! stat_filter_footprint {
    () => {
        fn fields_read(&self) -> FieldSet {
            FieldSet::of([self.field.as_str(), STATS_KEY])
        }
        fn fields_written(&self) -> FieldSet {
            FieldSet::of([STATS_KEY])
        }
    };
}

/// Footprint for filters that decide from a `meta` key instead of text.
macro_rules! meta_filter_footprint {
    () => {
        fn fields_read(&self) -> FieldSet {
            FieldSet::of([META_KEY, STATS_KEY])
        }
        fn fields_written(&self) -> FieldSet {
            FieldSet::of([STATS_KEY])
        }
    };
}

macro_rules! range_filter {
    ($(#[$doc:meta])* $name:ident, $op_name:literal, $stats_key:literal,
     needs: $needs:expr, cost: $cost:expr,
     |$text:ident, $ctx:ident| $compute:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            pub field: String,
            pub range: RangeBound,
        }

        impl $name {
            pub fn new(min: f64, max: f64) -> Result<Self> {
                Ok(Self {
                    field: TEXT_KEY.to_string(),
                    range: RangeBound::new(min, max)?,
                })
            }

            pub fn on_field(mut self, field: &str) -> Self {
                self.field = field.to_string();
                self
            }
        }

        impl Filter for $name {
            fn name(&self) -> &'static str {
                $op_name
            }

            fn stats_key(&self) -> &'static str {
                $stats_key
            }

            fn context_needs(&self) -> ContextNeeds {
                $needs
            }

            fn cost(&self) -> OpCost {
                $cost
            }

            fn compute_stats(&self, sample: &mut Sample, $ctx: &mut SampleContext) -> Result<()> {
                record_stat(sample, &self.field, $stats_key, |$text| $compute);
                Ok(())
            }

            fn process(&self, sample: &Sample) -> Result<bool> {
                Ok(self.range.contains(stat(sample, $stats_key, $op_name)?))
            }

            stat_filter_footprint!();
        }
    };
}

range_filter!(
    /// Keep samples whose alphanumeric-character ratio is in range
    /// (`alphanumeric_ratio_filter`).
    AlnumRatioFilter, "alphanumeric_ratio_filter", "alnum_ratio",
    needs: ContextNeeds::CHARS, cost: OpCost::Cheap,
    |text, ctx| ctx.chars(text).alnum_ratio()
);

range_filter!(
    /// Keep samples whose special-character ratio is in range
    /// (`special_characters_filter`).
    SpecialCharsFilter, "special_characters_filter", "special_char_ratio",
    needs: ContextNeeds::CHARS, cost: OpCost::Cheap,
    |text, ctx| ctx.chars(text).special_ratio()
);

range_filter!(
    /// Keep samples whose whitespace ratio is in range
    /// (`whitespace_ratio_filter`).
    WhitespaceRatioFilter, "whitespace_ratio_filter", "whitespace_ratio",
    needs: ContextNeeds::CHARS, cost: OpCost::Cheap,
    |text, ctx| ctx.chars(text).whitespace_ratio()
);

range_filter!(
    /// Keep samples whose uppercase-letter ratio is in range
    /// (`uppercase_ratio_filter`).
    UppercaseRatioFilter, "uppercase_ratio_filter", "uppercase_ratio",
    needs: ContextNeeds::CHARS, cost: OpCost::Cheap,
    |text, ctx| ctx.chars(text).uppercase_ratio()
);

range_filter!(
    /// Keep samples whose digit ratio is in range — financial-domain
    /// recipes relax the max (`spec_numerals_filter`).
    DigitRatioFilter, "spec_numerals_filter", "digit_ratio",
    needs: ContextNeeds::CHARS, cost: OpCost::Cheap,
    |text, ctx| ctx.chars(text).digit_ratio()
);

range_filter!(
    /// Keep samples whose character count is in range (`text_length_filter`).
    TextLengthFilter, "text_length_filter", "text_len",
    needs: ContextNeeds::CHARS, cost: OpCost::Cheap,
    |text, ctx| ctx.chars(text).chars as f64
);

range_filter!(
    /// Keep samples whose word count is in range (`word_num_filter`).
    WordNumFilter, "word_num_filter", "word_count",
    needs: ContextNeeds::WORDS, cost: OpCost::Cheap,
    |text, ctx| ctx.words(text).len() as f64
);

range_filter!(
    /// Keep samples whose mean line length is in range
    /// (`average_line_length_filter`).
    AvgLineLengthFilter, "average_line_length_filter", "avg_line_length",
    needs: ContextNeeds::LINES, cost: OpCost::Cheap,
    |text, ctx| tstats::avg_line_length(ctx.lines(text))
);

range_filter!(
    /// Keep samples whose longest line is in range
    /// (`maximum_line_length_filter`).
    MaxLineLengthFilter, "maximum_line_length_filter", "max_line_length",
    needs: ContextNeeds::LINES, cost: OpCost::Cheap,
    |text, ctx| tstats::max_line_length(ctx.lines(text))
);

range_filter!(
    /// Keep samples whose paragraph count is in range
    /// (`paragraph_count_filter`).
    ParagraphCountFilter, "paragraph_count_filter", "paragraph_count",
    needs: ContextNeeds::NONE, cost: OpCost::Cheap,
    |text, _ctx| tstats::paragraph_count(text) as f64
);

range_filter!(
    /// Keep samples whose mean word length is in range
    /// (`average_word_length_filter`).
    AvgWordLengthFilter, "average_word_length_filter", "avg_word_length",
    needs: ContextNeeds::WORDS, cost: OpCost::Cheap,
    |text, ctx| tstats::avg_word_length(ctx.words(text))
);

range_filter!(
    /// Keep samples whose word-entropy (linguistic diversity proxy) is in
    /// range (`word_entropy_filter`).
    WordEntropyFilter, "word_entropy_filter", "word_entropy",
    needs: ContextNeeds::WORDS, cost: OpCost::Moderate,
    |text, ctx| tstats::word_entropy(ctx.words(text))
);

/// Keep samples whose character n-gram repetition ratio is in range
/// (`character_repetition_filter`).
#[derive(Debug, Clone)]
pub struct CharRepetitionFilter {
    pub field: String,
    pub ngram: usize,
    pub range: RangeBound,
}

impl CharRepetitionFilter {
    pub fn new(ngram: usize, min: f64, max: f64) -> Result<Self> {
        if ngram == 0 {
            return Err(DjError::Config(
                "character_repetition_filter: ngram must be positive".into(),
            ));
        }
        Ok(CharRepetitionFilter {
            field: TEXT_KEY.to_string(),
            ngram,
            range: RangeBound::new(min, max)?,
        })
    }
}

impl Filter for CharRepetitionFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "character_repetition_filter"
    }
    fn stats_key(&self) -> &'static str {
        "char_rep_ratio"
    }
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::CHARS
    }
    fn cost(&self) -> OpCost {
        OpCost::Moderate
    }
    fn compute_stats(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "char_rep_ratio", |text| {
            tstats::char_rep_ratio(text, self.ngram, ctx.scratch())
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(self
            .range
            .contains(stat(sample, "char_rep_ratio", self.name())?))
    }
}

/// Keep samples whose word n-gram repetition ratio is in range
/// (`word_repetition_filter`, the Fig. 5 recipe's `rep_len` knob).
#[derive(Debug, Clone)]
pub struct WordRepetitionFilter {
    pub field: String,
    pub rep_len: usize,
    pub range: RangeBound,
}

impl WordRepetitionFilter {
    pub fn new(rep_len: usize, min: f64, max: f64) -> Result<Self> {
        if rep_len == 0 {
            return Err(DjError::Config(
                "word_repetition_filter: rep_len must be positive".into(),
            ));
        }
        Ok(WordRepetitionFilter {
            field: TEXT_KEY.to_string(),
            rep_len,
            range: RangeBound::new(min, max)?,
        })
    }
}

impl Filter for WordRepetitionFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "word_repetition_filter"
    }
    fn stats_key(&self) -> &'static str {
        "word_rep_ratio"
    }
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::WORDS
    }
    fn cost(&self) -> OpCost {
        OpCost::Moderate
    }
    fn compute_stats(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "word_rep_ratio", |text| {
            let (words, scratch) = ctx.words_and_scratch(text);
            tstats::word_rep_ratio(words, self.rep_len, scratch)
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(self
            .range
            .contains(stat(sample, "word_rep_ratio", self.name())?))
    }
}

/// Keep samples with a healthy stopword ratio (`stopwords_filter`).
#[derive(Debug, Clone)]
pub struct StopwordsFilter {
    pub field: String,
    pub min_ratio: f64,
    lexicon: Arc<FxHashSet<String>>,
}

impl StopwordsFilter {
    pub fn new(min_ratio: f64) -> Self {
        StopwordsFilter {
            field: TEXT_KEY.to_string(),
            min_ratio,
            lexicon: Arc::new(lexicon::english_stopwords()),
        }
    }

    /// Supply a custom stopword list (the §5.3 "vocabularies" extension).
    pub fn with_lexicon(mut self, lexicon: FxHashSet<String>) -> Self {
        self.lexicon = Arc::new(lexicon);
        self
    }
}

impl Filter for StopwordsFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "stopwords_filter"
    }
    fn stats_key(&self) -> &'static str {
        "stopword_ratio"
    }
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::WORDS
    }
    fn compute_stats(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "stopword_ratio", |text| {
            tstats::lexicon_ratio(ctx.words(text), &self.lexicon)
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "stopword_ratio", self.name())? >= self.min_ratio)
    }
}

/// Drop samples whose flagged-word ratio exceeds `max_ratio`
/// (`flagged_words_filter`).
#[derive(Debug, Clone)]
pub struct FlaggedWordsFilter {
    pub field: String,
    pub max_ratio: f64,
    lexicon: Arc<FxHashSet<String>>,
}

impl FlaggedWordsFilter {
    pub fn new(max_ratio: f64) -> Self {
        FlaggedWordsFilter {
            field: TEXT_KEY.to_string(),
            max_ratio,
            lexicon: Arc::new(lexicon::flagged_words()),
        }
    }

    pub fn with_lexicon(mut self, lexicon: FxHashSet<String>) -> Self {
        self.lexicon = Arc::new(lexicon);
        self
    }
}

impl Filter for FlaggedWordsFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "flagged_words_filter"
    }
    fn stats_key(&self) -> &'static str {
        "flagged_word_ratio"
    }
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::WORDS
    }
    fn compute_stats(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "flagged_word_ratio", |text| {
            tstats::lexicon_ratio(ctx.words(text), &self.lexicon)
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "flagged_word_ratio", self.name())? <= self.max_ratio)
    }
}

/// Keep samples confidently identified as `lang`
/// (`language_id_score_filter`).
#[derive(Clone)]
pub struct LanguageIdScoreFilter {
    pub field: String,
    pub lang: String,
    pub min_score: f64,
    model: Arc<LangIdModel>,
}

impl LanguageIdScoreFilter {
    pub fn new(lang: &str, min_score: f64) -> Self {
        LanguageIdScoreFilter {
            field: TEXT_KEY.to_string(),
            lang: lang.to_string(),
            min_score,
            model: Arc::new(models::default_langid().clone()),
        }
    }

    pub fn with_model(mut self, model: Arc<LangIdModel>) -> Self {
        self.model = model;
        self
    }
}

impl Filter for LanguageIdScoreFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "language_id_score_filter"
    }
    fn stats_key(&self) -> &'static str {
        "lang_score"
    }
    fn cost(&self) -> OpCost {
        OpCost::Expensive
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "lang_score", |text| {
            self.model.score_for(text, &self.lang)
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "lang_score", self.name())? >= self.min_score)
    }
}

/// Drop samples whose LM perplexity exceeds `max_ppl` (`perplexity_filter`).
#[derive(Clone)]
pub struct PerplexityFilter {
    pub field: String,
    pub max_ppl: f64,
    model: Arc<NgramModel>,
}

impl PerplexityFilter {
    pub fn new(max_ppl: f64) -> Self {
        PerplexityFilter {
            field: TEXT_KEY.to_string(),
            max_ppl,
            model: Arc::clone(models::default_perplexity_model()),
        }
    }

    pub fn with_model(mut self, model: Arc<NgramModel>) -> Self {
        self.model = model;
        self
    }
}

impl Filter for PerplexityFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "perplexity_filter"
    }
    fn stats_key(&self) -> &'static str {
        "perplexity"
    }
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::WORDS
    }
    fn cost(&self) -> OpCost {
        OpCost::Expensive
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "perplexity", |text| {
            let v = self.model.perplexity(text);
            // Record infinities as a large sentinel so stats stay JSON-safe.
            if v.is_finite() {
                v
            } else {
                1e9
            }
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "perplexity", self.name())? <= self.max_ppl)
    }
}

/// Keep samples whose estimated token count is in range
/// (`token_num_filter`). Uses the chars-per-token estimator by default; a
/// trained BPE can be plugged in for exact counts.
#[derive(Clone)]
pub struct TokenNumFilter {
    pub field: String,
    pub range: RangeBound,
    tokenizer: Option<Arc<dj_text::BpeTokenizer>>,
    chars_per_token: f64,
}

impl TokenNumFilter {
    pub fn new(min: f64, max: f64) -> Result<Self> {
        Ok(TokenNumFilter {
            field: TEXT_KEY.to_string(),
            range: RangeBound::new(min, max)?,
            tokenizer: None,
            chars_per_token: 4.2,
        })
    }

    pub fn with_tokenizer(mut self, tok: Arc<dj_text::BpeTokenizer>) -> Self {
        self.tokenizer = Some(tok);
        self
    }
}

impl Filter for TokenNumFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "token_num_filter"
    }
    fn stats_key(&self) -> &'static str {
        "num_tokens"
    }
    fn cost(&self) -> OpCost {
        if self.tokenizer.is_some() {
            OpCost::Expensive
        } else {
            OpCost::Cheap
        }
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "num_tokens", |text| {
            let n = match &self.tokenizer {
                Some(tok) => tok.count_tokens(text),
                None => dj_text::tokenize::estimate_tokens(text, self.chars_per_token),
            };
            n as f64
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(self
            .range
            .contains(stat(sample, "num_tokens", self.name())?))
    }
}

/// Keep samples the quality classifier scores at or above `min_score`
/// (`quality_score_filter`, backing the §5.2 classifier tooling).
#[derive(Clone)]
pub struct QualityScoreFilter {
    pub field: String,
    pub min_score: f64,
    classifier: Arc<QualityClassifier>,
}

impl QualityScoreFilter {
    pub fn new(min_score: f64) -> Self {
        QualityScoreFilter {
            field: TEXT_KEY.to_string(),
            min_score,
            classifier: Arc::clone(models::default_quality_classifier()),
        }
    }

    pub fn with_classifier(mut self, classifier: Arc<QualityClassifier>) -> Self {
        self.classifier = classifier;
        self
    }
}

impl Filter for QualityScoreFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "quality_score_filter"
    }
    fn stats_key(&self) -> &'static str {
        "quality_score"
    }
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::WORDS
    }
    fn cost(&self) -> OpCost {
        OpCost::Expensive
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "quality_score", |text| {
            self.classifier.score(text)
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "quality_score", self.name())? >= self.min_score)
    }
}

/// Keep samples whose meta field matches one of the allowed string values
/// (`meta_tag_filter`; e.g. keep only `meta.language == "EN"`).
#[derive(Debug, Clone)]
pub struct MetaTagFilter {
    pub key: String,
    pub allowed: Vec<String>,
}

impl MetaTagFilter {
    pub fn new(key: &str, allowed: Vec<String>) -> Result<Self> {
        if allowed.is_empty() {
            return Err(DjError::Config(
                "meta_tag_filter: allowed set must be non-empty".into(),
            ));
        }
        Ok(MetaTagFilter {
            key: key.to_string(),
            allowed,
        })
    }
}

impl Filter for MetaTagFilter {
    meta_filter_footprint!();
    fn name(&self) -> &'static str {
        "meta_tag_filter"
    }
    fn stats_key(&self) -> &'static str {
        "meta_tag_match"
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        let hit = sample
            .meta(&self.key)
            .and_then(|v| v.as_str())
            .map(|s| self.allowed.iter().any(|a| a == s))
            .unwrap_or(false);
        sample.set_stat("meta_tag_match", if hit { 1.0 } else { 0.0 });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "meta_tag_match", self.name())? > 0.5)
    }
}

/// Keep code samples with at least `min_stars` stars — the paper's §3.3
/// example of "removing GitHub codes based on their star counts"
/// (`star_count_filter`).
#[derive(Debug, Clone)]
pub struct StarCountFilter {
    pub min_stars: i64,
}

impl StarCountFilter {
    pub fn new(min_stars: i64) -> Self {
        StarCountFilter { min_stars }
    }
}

impl Filter for StarCountFilter {
    meta_filter_footprint!();
    fn name(&self) -> &'static str {
        "star_count_filter"
    }
    fn stats_key(&self) -> &'static str {
        "star_count"
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        let stars = sample
            .meta("stars")
            .and_then(|v| v.as_float())
            .unwrap_or(0.0);
        sample.set_stat("star_count", stars);
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "star_count", self.name())? >= self.min_stars as f64)
    }
}

/// Keep samples whose text contains at least `min_pairs` verb-object pairs —
/// the fine-tuning diversity signal of the Fig. 5 probe
/// (`action_verb_filter`).
#[derive(Clone)]
pub struct ActionVerbFilter {
    pub field: String,
    pub min_pairs: usize,
    verbs: Arc<FxHashSet<String>>,
    nouns: Arc<FxHashSet<String>>,
}

impl ActionVerbFilter {
    pub fn new(min_pairs: usize) -> Self {
        ActionVerbFilter {
            field: TEXT_KEY.to_string(),
            min_pairs,
            verbs: Arc::new(lexicon::common_verbs()),
            nouns: Arc::new(lexicon::common_nouns()),
        }
    }
}

impl Filter for ActionVerbFilter {
    stat_filter_footprint!();
    fn name(&self) -> &'static str {
        "action_verb_filter"
    }
    fn stats_key(&self) -> &'static str {
        "verb_noun_pairs"
    }
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::WORDS
    }
    fn cost(&self) -> OpCost {
        OpCost::Moderate
    }
    fn compute_stats(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<()> {
        record_stat(sample, &self.field, "verb_noun_pairs", |text| {
            lexicon::verb_noun_pairs(ctx.words(text), &self.verbs, &self.nouns).len() as f64
        });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "verb_noun_pairs", self.name())? >= self.min_pairs as f64)
    }
}

/// Keep samples whose `meta.suffix` is in the allowed list
/// (`suffix_filter` — keep only `.py`/`.md`/... inputs).
#[derive(Debug, Clone)]
pub struct SuffixFilter {
    pub allowed: Vec<String>,
}

impl SuffixFilter {
    pub fn new(allowed: Vec<String>) -> Result<Self> {
        if allowed.is_empty() {
            return Err(DjError::Config(
                "suffix_filter: allowed set must be non-empty".into(),
            ));
        }
        Ok(SuffixFilter { allowed })
    }
}

impl Filter for SuffixFilter {
    meta_filter_footprint!();
    fn name(&self) -> &'static str {
        "suffix_filter"
    }
    fn stats_key(&self) -> &'static str {
        "suffix_match"
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        let hit = sample
            .meta("suffix")
            .and_then(|v| v.as_str())
            .map(|s| self.allowed.iter().any(|a| a == s))
            .unwrap_or(false);
        sample.set_stat("suffix_match", if hit { 1.0 } else { 0.0 });
        Ok(())
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        Ok(stat(sample, "suffix_match", self.name())? > 0.5)
    }
}

/// Generic range filter over an arbitrary, already-recorded stats key
/// (`stats_range_filter`) — lets recipes threshold on statistics computed
/// by earlier OPs or the analyzer.
#[derive(Debug, Clone)]
pub struct StatsRangeFilter {
    pub key: String,
    pub range: RangeBound,
    /// Decision when the stat is absent (default: keep).
    pub keep_if_missing: bool,
}

impl StatsRangeFilter {
    pub fn new(key: &str, min: f64, max: f64) -> Result<Self> {
        Ok(StatsRangeFilter {
            key: key.to_string(),
            range: RangeBound::new(min, max)?,
            keep_if_missing: true,
        })
    }
}

impl Filter for StatsRangeFilter {
    fn name(&self) -> &'static str {
        "stats_range_filter"
    }
    fn stats_key(&self) -> &'static str {
        "stats_range"
    }
    fn compute_stats(&self, _sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        Ok(()) // consumes stats computed by others
    }
    fn process(&self, sample: &Sample) -> Result<bool> {
        match sample.stat(&self.key) {
            Some(v) => Ok(self.range.contains(v)),
            None => Ok(self.keep_if_missing),
        }
    }
}

/// The "borrow text, write stat after" rule in one place: measure `key`
/// from the borrowed text of `field`, then — the borrow over — set it,
/// whatever an input line, an analyzer pass or an earlier op recorded
/// under that name.
fn record_stat(sample: &mut Sample, field: &str, key: &str, compute: impl FnOnce(&str) -> f64) {
    let value = compute(sample.text_at(field));
    sample.set_stat(key, value);
}

fn stat(sample: &Sample, key: &str, op: &str) -> Result<f64> {
    sample
        .stat(key)
        .ok_or_else(|| DjError::op(op, format!("missing stat `{key}` (compute_stats not run?)")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keeps(f: &dyn Filter, text: &str) -> bool {
        let mut s = Sample::from_text(text);
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut s, &mut ctx).unwrap();
        f.process(&s).unwrap()
    }

    #[test]
    fn range_validation() {
        assert!(RangeBound::new(1.0, 0.0).is_err());
        assert!(AlnumRatioFilter::new(0.9, 0.1).is_err());
    }

    #[test]
    fn alnum_and_special_chars() {
        let f = AlnumRatioFilter::new(0.5, 1.0).unwrap();
        assert!(keeps(&f, "cleantext"));
        assert!(!keeps(&f, "#### $$$$ %%%%"));
        let g = SpecialCharsFilter::new(0.0, 0.2).unwrap();
        assert!(keeps(&g, "normal sentence here."));
        assert!(!keeps(&g, "░▒▓█▓▒░░▒▓█▓▒░"));
    }

    #[test]
    fn length_filters() {
        let f = TextLengthFilter::new(3.0, 10.0).unwrap();
        assert!(keeps(&f, "hello"));
        assert!(!keeps(&f, "hi"));
        assert!(!keeps(&f, "a very long text that exceeds the cap"));
        let w = WordNumFilter::new(2.0, 4.0).unwrap();
        assert!(keeps(&w, "three word text"));
        assert!(!keeps(&w, "one"));
    }

    #[test]
    fn line_filters() {
        let f = AvgLineLengthFilter::new(2.0, 6.0).unwrap();
        assert!(keeps(&f, "abc\nabcd"));
        assert!(!keeps(&f, "extremely long single line of text"));
        let m = MaxLineLengthFilter::new(0.0, 10.0).unwrap();
        assert!(keeps(&m, "short\nlines"));
        assert!(!keeps(&m, "this line is much too long"));
    }

    #[test]
    fn repetition_filters() {
        let f = WordRepetitionFilter::new(2, 0.0, 0.3).unwrap();
        assert!(keeps(&f, "all words in this sentence differ completely"));
        assert!(!keeps(&f, "buy now buy now buy now buy now"));
        let c = CharRepetitionFilter::new(4, 0.0, 0.3).unwrap();
        assert!(!keeps(&c, "aaaaaaaaaaaaaaaaaaaaaa"));
        assert!(CharRepetitionFilter::new(0, 0.0, 1.0).is_err());
    }

    #[test]
    fn stopword_and_flagged_filters() {
        let f = StopwordsFilter::new(0.2);
        assert!(keeps(&f, "the cat is on the mat"));
        assert!(!keeps(&f, "cat mat dog log fog"));
        let g = FlaggedWordsFilter::new(0.05);
        assert!(keeps(&g, "a perfectly benign sentence"));
        assert!(!keeps(&g, "flagged1 flagged2 spam flagged3"));
    }

    #[test]
    fn langid_filter() {
        let f = LanguageIdScoreFilter::new("en", 0.4);
        assert!(keeps(
            &f,
            "this is an english sentence about the weather and the news"
        ));
        assert!(!keeps(&f, "今天的天气非常好我们一起去公园散步吧"));
    }

    #[test]
    fn perplexity_filter_orders_text() {
        let f = PerplexityFilter::new(1e5);
        let mut fluent = Sample::from_text("the method improves the accuracy of the model");
        let mut noise = Sample::from_text("zxqj vbnk wpfh qqqz jjjx mmmv");
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut fluent, &mut ctx).unwrap();
        ctx.invalidate();
        f.compute_stats(&mut noise, &mut ctx).unwrap();
        assert!(fluent.stat("perplexity").unwrap() < noise.stat("perplexity").unwrap());
    }

    #[test]
    fn quality_filter() {
        let f = QualityScoreFilter::new(0.5);
        assert!(keeps(
            &f,
            "the committee agreed the analysis of the report was sound"
        ));
        assert!(!keeps(&f, "click here free casino jackpot winbig buy now"));
    }

    #[test]
    fn meta_filters() {
        let f = MetaTagFilter::new("language", vec!["EN".into()]).unwrap();
        let mut s = Sample::from_text("x");
        s.set_meta("language", "EN");
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut s, &mut ctx).unwrap();
        assert!(f.process(&s).unwrap());
        let mut zh = Sample::from_text("x");
        zh.set_meta("language", "ZH");
        f.compute_stats(&mut zh, &mut ctx).unwrap();
        assert!(!f.process(&zh).unwrap());
        // Missing meta → dropped.
        let mut none = Sample::from_text("x");
        f.compute_stats(&mut none, &mut ctx).unwrap();
        assert!(!f.process(&none).unwrap());
        assert!(MetaTagFilter::new("k", vec![]).is_err());
    }

    #[test]
    fn star_count_filter() {
        let f = StarCountFilter::new(100);
        let mut s = Sample::from_text("code");
        s.set_meta("stars", 1372i64);
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut s, &mut ctx).unwrap();
        assert!(f.process(&s).unwrap());
        let mut low = Sample::from_text("code");
        low.set_meta("stars", 3i64);
        f.compute_stats(&mut low, &mut ctx).unwrap();
        assert!(!f.process(&low).unwrap());
    }

    #[test]
    fn action_verb_filter() {
        let f = ActionVerbFilter::new(1);
        assert!(keeps(&f, "Write a story about a dragon"));
        assert!(!keeps(&f, "nothing actionable in here"));
    }

    #[test]
    fn stats_range_filter_consumes_existing() {
        let f = StatsRangeFilter::new("word_count", 0.0, 5.0).unwrap();
        let mut s = Sample::from_text("irrelevant");
        s.set_stat("word_count", 3.0);
        assert!(f.process(&s).unwrap());
        s.set_stat("word_count", 9.0);
        assert!(!f.process(&s).unwrap());
        let missing = Sample::from_text("x");
        assert!(f.process(&missing).unwrap(), "keep_if_missing default");
    }

    #[test]
    fn process_without_stats_errors() {
        let f = WordNumFilter::new(0.0, 5.0).unwrap();
        let s = Sample::from_text("never computed");
        assert!(f.process(&s).is_err());
    }

    #[test]
    fn a_recorded_stat_is_measured_again() {
        // A stat already recorded under the filter's name (an input line,
        // an analyzer pass, another field) is measured again, not reused.
        let f = TextLengthFilter::new(0.0, 100.0).unwrap();
        let mut s = Sample::from_text("abc");
        s.set_stat("text_len", 42.0);
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut s, &mut ctx).unwrap();
        assert_eq!(s.stat("text_len"), Some(3.0));
        let stars = StarCountFilter::new(10);
        s.set_meta("stars", 7i64);
        s.set_stat("star_count", 500.0);
        stars.compute_stats(&mut s, &mut ctx).unwrap();
        assert!(!stars.process(&s).unwrap());
    }

    #[test]
    fn entropy_and_digit_filters() {
        let e = WordEntropyFilter::new(1.0, 100.0).unwrap();
        assert!(keeps(
            &e,
            "many different interesting words appear here today"
        ));
        assert!(!keeps(&e, "spam spam spam spam"));
        let d = DigitRatioFilter::new(0.0, 0.3).unwrap();
        assert!(keeps(&d, "year 2023 was fine"));
        assert!(!keeps(&d, "12345 67890 11111 22222"));
    }
}
