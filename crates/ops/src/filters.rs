//! Filter OPs: conditional text removal driven by recorded statistics
//! (Table 1). Every built-in filter is one [`StatFilter`]: a [`Measure`]
//! that `compute_stats` records into `sample.stats`, every time, and a
//! [`RangeBound`] that `process` keeps the recorded value in — the
//! stats/decision decoupling of §3.2. The registry gives each op name its
//! stats key, its parameters and its measure (`registry.rs`).
//!
//! `compute_stats` never copies the text it reads: it borrows the field,
//! computes the value from the context's shared views, and records the
//! stat once the borrow has ended.

use std::sync::Arc;

use dj_core::{
    ContextNeeds, DjError, FieldSet, Filter, OpCost, Result, Sample, SampleContext, Value,
    META_KEY, STATS_KEY, TEXT_KEY,
};
use dj_hash::FxHashSet;
use dj_ml::QualityClassifier;
use dj_text::lexicon;
use dj_text::stats as tstats;
use dj_text::{LangIdModel, NgramModel};

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

/// What a filter measures: the statistic, and only the parameters that
/// change its value. The thresholds are the filter's [`RangeBound`].
#[derive(Clone)]
pub enum Measure {
    AlnumRatio,
    SpecialCharRatio,
    WhitespaceRatio,
    UppercaseRatio,
    DigitRatio,
    /// The character count.
    TextLength,
    WordCount,
    AvgLineLength,
    MaxLineLength,
    ParagraphCount,
    AvgWordLength,
    /// Word entropy, a linguistic diversity proxy.
    WordEntropy,
    /// The character n-gram repetition ratio.
    CharRepetition {
        ngram: usize,
    },
    /// The word n-gram repetition ratio (the Fig. 5 recipe's `rep_len`).
    WordRepetition {
        rep_len: usize,
    },
    /// The share of words in a lexicon (stopwords, flagged words — the
    /// §5.3 "vocabularies").
    LexiconRatio(Arc<FxHashSet<String>>),
    /// The number of verb-object pairs, the fine-tuning diversity signal
    /// of the Fig. 5 probe.
    VerbNounPairs {
        verbs: Arc<FxHashSet<String>>,
        nouns: Arc<FxHashSet<String>>,
    },
    /// The token count, estimated at 4.2 characters per token.
    TokenCount,
    /// The language-id model's score for `lang`.
    LanguageScore {
        lang: String,
        model: Arc<LangIdModel>,
    },
    /// The LM perplexity; an infinite one is recorded as `1e9` so stats
    /// stay JSON-safe.
    Perplexity(Arc<NgramModel>),
    /// The quality classifier's score (the §5.2 classifier tooling).
    QualityScore(Arc<QualityClassifier>),
    /// 1 when the string at `meta.<key>` is one of `allowed`, else 0.
    MetaIn {
        key: String,
        allowed: Vec<String>,
    },
    /// The number at `meta.<key>`, 0 when there is none.
    MetaNumber(String),
    /// A stat some other op recorded under this key: nothing is measured,
    /// and a sample that carries no such stat is kept.
    Recorded(String),
}

/// Characters per token of the token-count estimate.
const CHARS_PER_TOKEN: f64 = 4.2;

impl Measure {
    /// Whether the measure reads the filter's text field (or else `meta`,
    /// or only the recorded stats): `field:` is a parameter of its filter.
    pub(crate) fn reads_text(&self) -> bool {
        !matches!(
            self,
            Measure::MetaIn { .. } | Measure::MetaNumber(_) | Measure::Recorded(_)
        )
    }
}

/// A built-in filter: keeps the samples whose `measure` of `field`,
/// recorded under `stats_key`, lies in `range`.
#[derive(Clone)]
pub struct StatFilter {
    name: &'static str,
    stats_key: &'static str,
    /// The text field a text measure reads.
    pub field: String,
    measure: Measure,
    range: RangeBound,
}

impl StatFilter {
    /// The filter `name` on the text field, or a config error for a measure
    /// or range that can decide nothing.
    pub fn new(
        name: &'static str,
        stats_key: &'static str,
        measure: Measure,
        min: f64,
        max: f64,
    ) -> Result<StatFilter> {
        let refused = match &measure {
            Measure::CharRepetition { ngram: 0 } => Some("ngram must be positive"),
            Measure::WordRepetition { rep_len: 0 } => Some("rep_len must be positive"),
            Measure::MetaIn { allowed, .. } if allowed.is_empty() => {
                Some("allowed set must be non-empty")
            }
            _ => None,
        };
        if let Some(why) = refused {
            return Err(DjError::Config(format!("{name}: {why}")));
        }
        Ok(StatFilter {
            name,
            stats_key,
            field: TEXT_KEY.to_string(),
            measure,
            range: RangeBound::new(min, max)?,
        })
    }

    /// The measurement of `sample`, or `None` for a recorded stat.
    fn measure(&self, sample: &Sample, ctx: &mut SampleContext) -> Option<f64> {
        let text = || sample.text_at(&self.field);
        Some(match &self.measure {
            Measure::AlnumRatio => ctx.chars(text()).alnum_ratio(),
            Measure::SpecialCharRatio => ctx.chars(text()).special_ratio(),
            Measure::WhitespaceRatio => ctx.chars(text()).whitespace_ratio(),
            Measure::UppercaseRatio => ctx.chars(text()).uppercase_ratio(),
            Measure::DigitRatio => ctx.chars(text()).digit_ratio(),
            Measure::TextLength => ctx.chars(text()).chars as f64,
            Measure::WordCount => ctx.words(text()).len() as f64,
            Measure::AvgLineLength => tstats::avg_line_length(ctx.lines(text())),
            Measure::MaxLineLength => tstats::max_line_length(ctx.lines(text())),
            Measure::ParagraphCount => tstats::paragraph_count(text()) as f64,
            Measure::AvgWordLength => tstats::avg_word_length(ctx.words(text())),
            Measure::WordEntropy => tstats::word_entropy(ctx.words(text())),
            Measure::CharRepetition { ngram } => {
                tstats::char_rep_ratio(text(), *ngram, ctx.scratch())
            }
            Measure::WordRepetition { rep_len } => {
                let (words, scratch) = ctx.words_and_scratch(text());
                tstats::word_rep_ratio(words, *rep_len, scratch)
            }
            Measure::LexiconRatio(lexicon) => tstats::lexicon_ratio(ctx.words(text()), lexicon),
            Measure::VerbNounPairs { verbs, nouns } => {
                lexicon::verb_noun_pairs(ctx.words(text()), verbs, nouns).len() as f64
            }
            Measure::TokenCount => {
                dj_text::tokenize::estimate_tokens(text(), CHARS_PER_TOKEN) as f64
            }
            Measure::LanguageScore { lang, model } => model.score_for(text(), lang),
            Measure::Perplexity(model) => {
                let v = model.perplexity(text());
                if v.is_finite() {
                    v
                } else {
                    1e9
                }
            }
            Measure::QualityScore(classifier) => classifier.score(text()),
            Measure::MetaIn { key, allowed } => {
                let hit = sample
                    .meta(key)
                    .and_then(Value::as_str)
                    .is_some_and(|s| allowed.iter().any(|a| a == s));
                if hit {
                    1.0
                } else {
                    0.0
                }
            }
            Measure::MetaNumber(key) => sample.meta(key).and_then(Value::as_float).unwrap_or(0.0),
            Measure::Recorded(_) => return None,
        })
    }
}

impl Filter for StatFilter {
    fn name(&self) -> &'static str {
        self.name
    }

    fn stats_key(&self) -> &'static str {
        self.stats_key
    }

    /// Measure, then — the borrow of the text over — record the value,
    /// whatever an input line, an analyzer pass or an earlier op recorded
    /// under that name.
    fn compute_stats(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<()> {
        if let Some(value) = self.measure(sample, ctx) {
            sample.set_stat(self.stats_key, value);
        }
        Ok(())
    }

    fn process(&self, sample: &Sample) -> Result<bool> {
        let key = match &self.measure {
            Measure::Recorded(key) => key.as_str(),
            _ => self.stats_key,
        };
        match sample.stat(key) {
            Some(v) => Ok(self.range.contains(v)),
            None if matches!(self.measure, Measure::Recorded(_)) => Ok(true),
            None => Err(DjError::op(
                self.name,
                format!("missing stat `{key}` (compute_stats not run?)"),
            )),
        }
    }

    fn context_needs(&self) -> ContextNeeds {
        match self.measure {
            Measure::AlnumRatio
            | Measure::SpecialCharRatio
            | Measure::WhitespaceRatio
            | Measure::UppercaseRatio
            | Measure::DigitRatio
            | Measure::TextLength
            | Measure::CharRepetition { .. } => ContextNeeds::CHARS,
            // The perplexity model and the quality classifier tokenize on
            // their own; they declare words all the same, which is what
            // places them in a fused step.
            Measure::WordCount
            | Measure::AvgWordLength
            | Measure::WordEntropy
            | Measure::WordRepetition { .. }
            | Measure::LexiconRatio(_)
            | Measure::VerbNounPairs { .. }
            | Measure::Perplexity(_)
            | Measure::QualityScore(_) => ContextNeeds::WORDS,
            Measure::AvgLineLength | Measure::MaxLineLength => ContextNeeds::LINES,
            Measure::ParagraphCount
            | Measure::TokenCount
            | Measure::LanguageScore { .. }
            | Measure::MetaIn { .. }
            | Measure::MetaNumber(_)
            | Measure::Recorded(_) => ContextNeeds::NONE,
        }
    }

    fn cost(&self) -> OpCost {
        match self.measure {
            Measure::WordEntropy
            | Measure::CharRepetition { .. }
            | Measure::WordRepetition { .. }
            | Measure::VerbNounPairs { .. } => OpCost::Moderate,
            Measure::LanguageScore { .. } | Measure::Perplexity(_) | Measure::QualityScore(_) => {
                OpCost::Expensive
            }
            _ => OpCost::Cheap,
        }
    }

    /// A range over a stat another op records decides only after that op:
    /// it must not be moved ahead of it.
    fn commutable(&self) -> bool {
        !matches!(self.measure, Measure::Recorded(_))
    }

    /// The text field or `meta`, plus the `stats` column `process` decides
    /// from — the footprint the columnar executor projects on.
    fn fields_read(&self) -> FieldSet {
        match self.measure {
            Measure::Recorded(_) => FieldSet::of([STATS_KEY]),
            Measure::MetaIn { .. } | Measure::MetaNumber(_) => FieldSet::of([META_KEY, STATS_KEY]),
            _ => FieldSet::of([self.field.as_str(), STATS_KEY]),
        }
    }

    fn fields_written(&self) -> FieldSet {
        match self.measure {
            Measure::Recorded(_) => FieldSet::none(),
            _ => FieldSet::of([STATS_KEY]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::{Op, OpParams};

    /// `name` built through the registry from `params`.
    fn build(name: &str, params: &[(&str, Value)]) -> Result<Arc<dyn Filter>> {
        let params: OpParams = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        match crate::builtin_registry().build(name, &params)? {
            Op::Filter(f) => Ok(f),
            _ => panic!("{name} is not a filter"),
        }
    }

    fn filter(name: &str, params: &[(&str, Value)]) -> Arc<dyn Filter> {
        build(name, params).unwrap()
    }

    fn keeps(f: &dyn Filter, text: &str) -> bool {
        let mut s = Sample::from_text(text);
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut s, &mut ctx).unwrap();
        f.process(&s).unwrap()
    }

    fn is_config_error<T>(r: Result<T>) -> bool {
        matches!(r, Err(DjError::Config(_)))
    }

    #[test]
    fn range_validation() {
        assert!(RangeBound::new(1.0, 0.0).is_err());
        assert!(is_config_error(build(
            "alphanumeric_ratio_filter",
            &[("min_ratio", 0.9.into()), ("max_ratio", 0.1.into())]
        )));
    }

    #[test]
    fn alnum_and_special_chars() {
        let f = filter(
            "alphanumeric_ratio_filter",
            &[("min_ratio", 0.5.into()), ("max_ratio", 1.0.into())],
        );
        assert!(keeps(&*f, "cleantext"));
        assert!(!keeps(&*f, "#### $$$$ %%%%"));
        let g = filter(
            "special_characters_filter",
            &[("min_ratio", 0.0.into()), ("max_ratio", 0.2.into())],
        );
        assert!(keeps(&*g, "normal sentence here."));
        assert!(!keeps(&*g, "░▒▓█▓▒░░▒▓█▓▒░"));
    }

    #[test]
    fn length_filters() {
        let f = filter(
            "text_length_filter",
            &[("min_len", 3.0.into()), ("max_len", 10.0.into())],
        );
        assert!(keeps(&*f, "hello"));
        assert!(!keeps(&*f, "hi"));
        assert!(!keeps(&*f, "a very long text that exceeds the cap"));
        let w = filter(
            "word_num_filter",
            &[("min_num", 2.0.into()), ("max_num", 4.0.into())],
        );
        assert!(keeps(&*w, "three word text"));
        assert!(!keeps(&*w, "one"));
    }

    #[test]
    fn line_filters() {
        let f = filter(
            "average_line_length_filter",
            &[("min_len", 2.0.into()), ("max_len", 6.0.into())],
        );
        assert!(keeps(&*f, "abc\nabcd"));
        assert!(!keeps(&*f, "extremely long single line of text"));
        let m = filter(
            "maximum_line_length_filter",
            &[("min_len", 0.0.into()), ("max_len", 10.0.into())],
        );
        assert!(keeps(&*m, "short\nlines"));
        assert!(!keeps(&*m, "this line is much too long"));
    }

    #[test]
    fn repetition_filters() {
        let f = filter(
            "word_repetition_filter",
            &[
                ("rep_len", 2i64.into()),
                ("min_ratio", 0.0.into()),
                ("max_ratio", 0.3.into()),
            ],
        );
        assert!(keeps(&*f, "all words in this sentence differ completely"));
        assert!(!keeps(&*f, "buy now buy now buy now buy now"));
        let c = filter(
            "character_repetition_filter",
            &[
                ("ngram", 4i64.into()),
                ("min_ratio", 0.0.into()),
                ("max_ratio", 0.3.into()),
            ],
        );
        assert!(!keeps(&*c, "aaaaaaaaaaaaaaaaaaaaaa"));
        let zero = |name, key| {
            build(
                name,
                &[
                    (key, 0i64.into()),
                    ("min_ratio", 0.0.into()),
                    ("max_ratio", 1.0.into()),
                ],
            )
        };
        assert!(is_config_error(zero(
            "character_repetition_filter",
            "ngram"
        )));
        assert!(is_config_error(zero("word_repetition_filter", "rep_len")));
    }

    #[test]
    fn stopword_and_flagged_filters() {
        let f = filter("stopwords_filter", &[("min_ratio", 0.2.into())]);
        assert!(keeps(&*f, "the cat is on the mat"));
        assert!(!keeps(&*f, "cat mat dog log fog"));
        let g = filter("flagged_words_filter", &[("max_ratio", 0.05.into())]);
        assert!(keeps(&*g, "a perfectly benign sentence"));
        assert!(!keeps(&*g, "flagged1 flagged2 spam flagged3"));
    }

    #[test]
    fn langid_filter() {
        let f = filter(
            "language_id_score_filter",
            &[("lang", "en".into()), ("min_score", 0.4.into())],
        );
        assert!(keeps(
            &*f,
            "this is an english sentence about the weather and the news"
        ));
        assert!(!keeps(&*f, "今天的天气非常好我们一起去公园散步吧"));
    }

    #[test]
    fn perplexity_filter_orders_text() {
        let f = filter("perplexity_filter", &[("max_ppl", 1e5.into())]);
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
        let f = filter("quality_score_filter", &[("min_score", 0.5.into())]);
        assert!(keeps(
            &*f,
            "the committee agreed the analysis of the report was sound"
        ));
        assert!(!keeps(&*f, "click here free casino jackpot winbig buy now"));
    }

    #[test]
    fn meta_filters() {
        let f = filter(
            "meta_tag_filter",
            &[
                ("key", "language".into()),
                ("allowed", Value::List(vec!["EN".into()])),
            ],
        );
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
        // The registry gives an empty `allowed` list its default set, so
        // the empty set reaches only the constructor it calls.
        let empty = Measure::MetaIn {
            key: "k".into(),
            allowed: vec![],
        };
        let min = 0.5f64.next_up();
        assert!(is_config_error(StatFilter::new(
            "meta_tag_filter",
            "meta_tag_match",
            empty,
            min,
            f64::INFINITY
        )));
    }

    #[test]
    fn star_count_filter() {
        let f = filter("star_count_filter", &[("min_stars", 100i64.into())]);
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
        let f = filter("action_verb_filter", &[("min_pairs", 1i64.into())]);
        assert!(keeps(&*f, "Write a story about a dragon"));
        assert!(!keeps(&*f, "nothing actionable in here"));
    }

    #[test]
    fn stats_range_filter_consumes_existing() {
        let f = filter(
            "stats_range_filter",
            &[
                ("key", "word_count".into()),
                ("min", 0.0.into()),
                ("max", 5.0.into()),
            ],
        );
        let mut s = Sample::from_text("irrelevant");
        s.set_stat("word_count", 3.0);
        assert!(f.process(&s).unwrap());
        s.set_stat("word_count", 9.0);
        assert!(!f.process(&s).unwrap());
        let missing = Sample::from_text("x");
        assert!(f.process(&missing).unwrap(), "a missing stat is kept");
    }

    #[test]
    fn process_without_stats_errors() {
        let f = filter(
            "word_num_filter",
            &[("min_num", 0.0.into()), ("max_num", 5.0.into())],
        );
        let s = Sample::from_text("never computed");
        assert!(matches!(f.process(&s), Err(DjError::Op { .. })));
    }

    #[test]
    fn a_recorded_stat_is_measured_again() {
        // A stat already recorded under the filter's name (an input line,
        // an analyzer pass, another field) is measured again, not reused.
        let f = filter(
            "text_length_filter",
            &[("min_len", 0.0.into()), ("max_len", 100.0.into())],
        );
        let mut s = Sample::from_text("abc");
        s.set_stat("text_len", 42.0);
        let mut ctx = SampleContext::new();
        f.compute_stats(&mut s, &mut ctx).unwrap();
        assert_eq!(s.stat("text_len"), Some(3.0));
        let stars = filter("star_count_filter", &[("min_stars", 10i64.into())]);
        s.set_meta("stars", 7i64);
        s.set_stat("star_count", 500.0);
        stars.compute_stats(&mut s, &mut ctx).unwrap();
        assert!(!stars.process(&s).unwrap());
    }

    #[test]
    fn entropy_and_digit_filters() {
        let e = filter(
            "word_entropy_filter",
            &[("min_entropy", 1.0.into()), ("max_entropy", 100.0.into())],
        );
        assert!(keeps(
            &*e,
            "many different interesting words appear here today"
        ));
        assert!(!keeps(&*e, "spam spam spam spam"));
        let d = filter(
            "spec_numerals_filter",
            &[("min_ratio", 0.0.into()), ("max_ratio", 0.3.into())],
        );
        assert!(keeps(&*d, "year 2023 was fine"));
        assert!(!keeps(&*d, "12345 67890 11111 22222"));
    }
}
