//! The built-in OP registry: maps recipe OP names to factories.
//!
//! This is what recipe configs resolve against, and the extension point
//! users add their own OPs to (paper §5.3, "Advanced Extension").

use std::sync::Arc;

use dj_core::{params, Op, OpRegistry, ParamView, Result};
use dj_text::lexicon;

use crate::dedup::{
    DocumentDeduplicator, MinHashDeduplicator, ParagraphDeduplicator, SimHashDeduplicator,
};
use crate::filters::{Measure, StatFilter};
use crate::mappers::*;
use crate::models;

fn field_of(p: &ParamView<'_>) -> Result<String> {
    Ok(params::str_or(p, "field", dj_core::TEXT_KEY)?.to_string())
}

macro_rules! mapper_factory {
    ($p:ident, $ty:ident) => {{
        let mut m = $ty::new();
        m.field = field_of($p)?;
        Ok(Op::Mapper(Arc::new(m)))
    }};
}

/// The one filter factory: the filter `name` recording `stats_key`, which
/// keeps the samples whose `measure` lies in `range` (`[min, max]`), on the
/// `field` parameter when the measure reads text.
fn stat_filter(
    p: &ParamView<'_>,
    name: &'static str,
    stats_key: &'static str,
    measure: Measure,
    (min, max): (f64, f64),
) -> Result<Op> {
    let reads_text = measure.reads_text();
    let mut f = StatFilter::new(name, stats_key, measure, min, max)?;
    if reads_text {
        f.field = field_of(p)?;
    }
    Ok(Op::Filter(Arc::new(f)))
}

/// `[min, max]` from two parameters, each `(key, default)`.
fn between(p: &ParamView<'_>, min: (&str, f64), max: (&str, f64)) -> Result<(f64, f64)> {
    Ok((
        params::f64_or(p, min.0, min.1)?,
        params::f64_or(p, max.0, max.1)?,
    ))
}

fn at_least(min: f64) -> (f64, f64) {
    (min, f64::INFINITY)
}

fn at_most(max: f64) -> (f64, f64) {
    (f64::NEG_INFINITY, max)
}

/// The range a 0 / 1 match stat is kept in: above 0.5.
const MATCHED: (f64, f64) = (0.5f64.next_up(), f64::INFINITY);

/// A list of strings, `default` when it is absent or empty.
fn list_or(p: &ParamView<'_>, key: &str, default: &[&str]) -> Result<Vec<String>> {
    let list = params::str_list(p, key)?;
    if list.is_empty() {
        return Ok(default.iter().map(|s| s.to_string()).collect());
    }
    Ok(list)
}

/// Build the full built-in registry (50+ OPs).
pub fn builtin_registry() -> OpRegistry {
    let mut reg = OpRegistry::new();

    // ---- Mappers -------------------------------------------------------
    reg.register("whitespace_normalization_mapper", |p| {
        mapper_factory!(p, WhitespaceNormalizationMapper)
    });
    reg.register("punctuation_normalization_mapper", |p| {
        mapper_factory!(p, PunctuationNormalizationMapper)
    });
    reg.register("fix_unicode_mapper", |p| {
        mapper_factory!(p, FixUnicodeMapper)
    });
    reg.register("clean_links_mapper", |p| {
        mapper_factory!(p, CleanLinksMapper)
    });
    reg.register("clean_email_mapper", |p| {
        mapper_factory!(p, CleanEmailMapper)
    });
    reg.register("clean_ip_mapper", |p| mapper_factory!(p, CleanIpMapper));
    reg.register("clean_html_mapper", |p| mapper_factory!(p, CleanHtmlMapper));
    reg.register("remove_header_mapper", |p| {
        mapper_factory!(p, RemoveHeaderMapper)
    });
    reg.register("remove_comments_mapper", |p| {
        mapper_factory!(p, RemoveCommentsMapper)
    });
    reg.register("lowercase_mapper", |p| mapper_factory!(p, LowercaseMapper));
    reg.register("remove_repeat_lines_mapper", |p| {
        mapper_factory!(p, RemoveRepeatLinesMapper)
    });
    reg.register("remove_long_words_mapper", |p| {
        let mut m = RemoveLongWordsMapper::new(params::usize_or(p, "max_len", 25)?);
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("remove_specific_chars_mapper", |p| {
        let chars = params::str_or(p, "chars", "◆●★□■▪▫◇○")?;
        let mut m = RemoveSpecificCharsMapper::new(chars);
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("remove_bibliography_mapper", |p| {
        let mut m = RemoveBibliographyMapper::new();
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("remove_table_text_mapper", |p| {
        let mut m = RemoveTableTextMapper::new();
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("sentence_split_mapper", |p| {
        let mut m = SentenceSplitMapper::new();
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("text_truncate_mapper", |p| {
        let mut m = TextTruncateMapper::new(params::usize_or(p, "max_chars", 100_000)?)?;
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("replace_content_mapper", |p| {
        let pattern = params::str_or(p, "pattern", "<redacted>")?;
        let replacement = params::str_or(p, "replacement", "")?;
        let mut m = ReplaceContentMapper::new(pattern, replacement)?;
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("remove_repeat_sentences_mapper", |p| {
        let mut m = RemoveRepeatSentencesMapper::new(params::usize_or(p, "max_repeats", 2)?);
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("expand_macro_mapper", |p| {
        let mut m = ExpandMacroMapper::new();
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("text_augment_mapper", |p| {
        let syn = params::f64_or(p, "synonym_rate", 0.1)?;
        let drop = params::f64_or(p, "dropout_rate", 0.0)?;
        let seed = params::usize_or(p, "seed", 42)? as u64;
        let mut m = TextAugmentMapper::new(syn, drop, seed)?;
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });
    reg.register("clean_copyright_mapper", |p| {
        let mut m = CleanCopyrightMapper::new();
        m.field = field_of(p)?;
        Ok(Op::Mapper(Arc::new(m)))
    });

    // ---- Filters -------------------------------------------------------
    // One row per op: name, stats key, the parameters it reads (in the
    // order it reads them) with their defaults, and its measure.
    reg.register_filter("alphanumeric_ratio_filter", "alnum_ratio", |p| {
        let range = between(p, ("min_ratio", 0.25), ("max_ratio", 1.0))?;
        let m = Measure::AlnumRatio;
        stat_filter(p, "alphanumeric_ratio_filter", "alnum_ratio", m, range)
    });
    reg.register_filter("special_characters_filter", "special_char_ratio", |p| {
        let range = between(p, ("min_ratio", 0.0), ("max_ratio", 0.25))?;
        let m = Measure::SpecialCharRatio;
        stat_filter(
            p,
            "special_characters_filter",
            "special_char_ratio",
            m,
            range,
        )
    });
    reg.register_filter("whitespace_ratio_filter", "whitespace_ratio", |p| {
        let range = between(p, ("min_ratio", 0.0), ("max_ratio", 0.5))?;
        let m = Measure::WhitespaceRatio;
        stat_filter(p, "whitespace_ratio_filter", "whitespace_ratio", m, range)
    });
    reg.register_filter("uppercase_ratio_filter", "uppercase_ratio", |p| {
        let range = between(p, ("min_ratio", 0.0), ("max_ratio", 0.6))?;
        let m = Measure::UppercaseRatio;
        stat_filter(p, "uppercase_ratio_filter", "uppercase_ratio", m, range)
    });
    reg.register_filter("spec_numerals_filter", "digit_ratio", |p| {
        let range = between(p, ("min_ratio", 0.0), ("max_ratio", 0.4))?;
        let m = Measure::DigitRatio;
        stat_filter(p, "spec_numerals_filter", "digit_ratio", m, range)
    });
    reg.register_filter("text_length_filter", "text_len", |p| {
        let range = between(p, ("min_len", 10.0), ("max_len", 1e7))?;
        let m = Measure::TextLength;
        stat_filter(p, "text_length_filter", "text_len", m, range)
    });
    reg.register_filter("word_num_filter", "word_count", |p| {
        let range = between(p, ("min_num", 5.0), ("max_num", 1e6))?;
        let m = Measure::WordCount;
        stat_filter(p, "word_num_filter", "word_count", m, range)
    });
    reg.register_filter("average_line_length_filter", "avg_line_length", |p| {
        let range = between(p, ("min_len", 10.0), ("max_len", 1e5))?;
        let m = Measure::AvgLineLength;
        stat_filter(p, "average_line_length_filter", "avg_line_length", m, range)
    });
    reg.register_filter("maximum_line_length_filter", "max_line_length", |p| {
        let range = between(p, ("min_len", 10.0), ("max_len", 1e5))?;
        let m = Measure::MaxLineLength;
        stat_filter(p, "maximum_line_length_filter", "max_line_length", m, range)
    });
    reg.register_filter("paragraph_count_filter", "paragraph_count", |p| {
        let range = between(p, ("min_num", 1.0), ("max_num", 1e5))?;
        let m = Measure::ParagraphCount;
        stat_filter(p, "paragraph_count_filter", "paragraph_count", m, range)
    });
    reg.register_filter("average_word_length_filter", "avg_word_length", |p| {
        let range = between(p, ("min_len", 2.0), ("max_len", 12.0))?;
        let m = Measure::AvgWordLength;
        stat_filter(p, "average_word_length_filter", "avg_word_length", m, range)
    });
    reg.register_filter("word_entropy_filter", "word_entropy", |p| {
        let range = between(p, ("min_entropy", 1.0), ("max_entropy", 1e3))?;
        let m = Measure::WordEntropy;
        stat_filter(p, "word_entropy_filter", "word_entropy", m, range)
    });
    reg.register_filter("character_repetition_filter", "char_rep_ratio", |p| {
        let ngram = params::usize_or(p, "ngram", 10)?;
        let range = between(p, ("min_ratio", 0.0), ("max_ratio", 0.5))?;
        let m = Measure::CharRepetition { ngram };
        stat_filter(p, "character_repetition_filter", "char_rep_ratio", m, range)
    });
    reg.register_filter("word_repetition_filter", "word_rep_ratio", |p| {
        let rep_len = params::usize_or(p, "rep_len", 10)?;
        let range = between(p, ("min_ratio", 0.0), ("max_ratio", 0.5))?;
        let m = Measure::WordRepetition { rep_len };
        stat_filter(p, "word_repetition_filter", "word_rep_ratio", m, range)
    });
    reg.register_filter("stopwords_filter", "stopword_ratio", |p| {
        let range = at_least(params::f64_or(p, "min_ratio", 0.1)?);
        let m = Measure::LexiconRatio(Arc::new(lexicon::english_stopwords()));
        stat_filter(p, "stopwords_filter", "stopword_ratio", m, range)
    });
    reg.register_filter("flagged_words_filter", "flagged_word_ratio", |p| {
        let range = at_most(params::f64_or(p, "max_ratio", 0.01)?);
        let m = Measure::LexiconRatio(Arc::new(lexicon::flagged_words()));
        stat_filter(p, "flagged_words_filter", "flagged_word_ratio", m, range)
    });
    reg.register_filter("language_id_score_filter", "lang_score", |p| {
        let lang = params::str_or(p, "lang", "en")?.to_string();
        let range = at_least(params::f64_or(p, "min_score", 0.5)?);
        let model = Arc::clone(models::default_langid());
        let m = Measure::LanguageScore { lang, model };
        stat_filter(p, "language_id_score_filter", "lang_score", m, range)
    });
    reg.register_filter("perplexity_filter", "perplexity", |p| {
        let range = at_most(params::f64_or(p, "max_ppl", 10000.0)?);
        let m = Measure::Perplexity(Arc::clone(models::default_perplexity_model()));
        stat_filter(p, "perplexity_filter", "perplexity", m, range)
    });
    reg.register_filter("token_num_filter", "num_tokens", |p| {
        let range = between(p, ("min_num", 10.0), ("max_num", 1e7))?;
        let m = Measure::TokenCount;
        stat_filter(p, "token_num_filter", "num_tokens", m, range)
    });
    reg.register_filter("quality_score_filter", "quality_score", |p| {
        let range = at_least(params::f64_or(p, "min_score", 0.5)?);
        let m = Measure::QualityScore(Arc::clone(models::default_quality_classifier()));
        stat_filter(p, "quality_score_filter", "quality_score", m, range)
    });
    reg.register_filter("meta_tag_filter", "meta_tag_match", |p| {
        let key = params::str_or(p, "key", "language")?.to_string();
        let allowed = list_or(p, "allowed", &["EN"])?;
        let m = Measure::MetaIn { key, allowed };
        stat_filter(p, "meta_tag_filter", "meta_tag_match", m, MATCHED)
    });
    reg.register_filter("star_count_filter", "star_count", |p| {
        let range = at_least(params::usize_or(p, "min_stars", 10)? as f64);
        let m = Measure::MetaNumber("stars".to_string());
        stat_filter(p, "star_count_filter", "star_count", m, range)
    });
    reg.register_filter("action_verb_filter", "verb_noun_pairs", |p| {
        let range = at_least(params::usize_or(p, "min_pairs", 1)? as f64);
        let verbs = Arc::new(lexicon::common_verbs());
        let nouns = Arc::new(lexicon::common_nouns());
        let m = Measure::VerbNounPairs { verbs, nouns };
        stat_filter(p, "action_verb_filter", "verb_noun_pairs", m, range)
    });
    reg.register_filter("suffix_filter", "suffix_match", |p| {
        let allowed = list_or(p, "allowed", &["txt", "md", "py", "rs"])?;
        let m = Measure::MetaIn {
            key: "suffix".to_string(),
            allowed,
        };
        stat_filter(p, "suffix_filter", "suffix_match", m, MATCHED)
    });
    reg.register_filter("stats_range_filter", "stats_range", |p| {
        let key = params::str_or(p, "key", "")?.to_string();
        let range = between(p, ("min", f64::MIN), ("max", f64::MAX))?;
        let m = Measure::Recorded(key);
        stat_filter(p, "stats_range_filter", "stats_range", m, range)
    });

    // ---- Deduplicators -------------------------------------------------
    reg.register("document_deduplicator", |p| {
        let lowercase = params::bool_or(p, "lowercase", false)?;
        let ignore = params::bool_or(p, "ignore_non_alnum", false)?;
        let mut d = DocumentDeduplicator::new();
        d.lowercase = lowercase;
        d.ignore_non_alnum = ignore;
        d.field = field_of(p)?;
        Ok(Op::Deduplicator(Arc::new(d)))
    });
    reg.register("document_minhash_deduplicator", |p| {
        let threshold = params::f64_or(p, "jaccard_threshold", 0.7)?;
        let bands = params::usize_or(p, "bands", 16)?;
        let rows = params::usize_or(p, "rows", 8)?;
        let shingle = params::usize_or(p, "shingle_size", 5)?;
        let mut d = MinHashDeduplicator::new(threshold, bands, rows, shingle)?;
        d.field = field_of(p)?;
        Ok(Op::Deduplicator(Arc::new(d)))
    });
    reg.register("document_simhash_deduplicator", |p| {
        // Saturate rather than wrap: a distance past `u32` is refused by
        // `new`'s bound like any other distance above 16.
        let dist = params::usize_or(p, "max_distance", 3)?;
        let mut d = SimHashDeduplicator::new(u32::try_from(dist).unwrap_or(u32::MAX))?;
        d.field = field_of(p)?;
        Ok(Op::Deduplicator(Arc::new(d)))
    });
    reg.register("paragraph_deduplicator", |p| {
        let mut d = ParagraphDeduplicator::new();
        d.field = field_of(p)?;
        Ok(Op::Deduplicator(Arc::new(d)))
    });

    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::{OpParams, Value};

    #[test]
    fn registry_has_the_paper_scale_op_pool() {
        let reg = builtin_registry();
        // "over 50 built-in operators" counting the 7 formatter types
        // registered separately in crate::formatters.
        assert!(
            reg.len() + crate::formatter_names().len() >= 50,
            "total OPs = {}",
            reg.len() + crate::formatter_names().len()
        );
    }

    #[test]
    fn build_with_defaults() {
        let reg = builtin_registry();
        for name in reg.names() {
            let op = reg.build(name, &OpParams::new());
            assert!(op.is_ok(), "default build of `{name}` failed: {op:?}");
        }
    }

    #[test]
    fn every_op_refuses_a_parameter_it_does_not_read() {
        let reg = builtin_registry();
        let p = OpParams::from([("no_such_param".to_string(), Value::Int(1))]);
        for name in reg.names() {
            let err = reg.build(name, &p).unwrap_err();
            assert!(matches!(err, dj_core::DjError::Config(_)), "{name}: {err}");
        }
    }

    #[test]
    fn build_with_params() {
        let reg = builtin_registry();
        let mut p = OpParams::new();
        p.insert("rep_len".into(), Value::Int(3));
        p.insert("min_ratio".into(), Value::Float(0.0));
        p.insert("max_ratio".into(), Value::Float(0.23));
        let op = reg.build("word_repetition_filter", &p).unwrap();
        assert_eq!(op.name(), "word_repetition_filter");
    }

    #[test]
    fn build_rejects_bad_params() {
        let reg = builtin_registry();
        let mut p = OpParams::new();
        p.insert("min_ratio".into(), Value::Float(0.9));
        p.insert("max_ratio".into(), Value::Float(0.1));
        assert!(reg.build("alphanumeric_ratio_filter", &p).is_err());
        let mut q = OpParams::new();
        q.insert("max_ppl".into(), Value::from("not a number"));
        assert!(reg.build("perplexity_filter", &q).is_err());
    }

    /// A MinHash width past the ceiling or past `usize`, and a SimHash
    /// distance past `u32`, are config errors — not an allocation of 72 TB,
    /// a hasher with no hash functions, or 2³² + 3 narrowed to 3.
    #[test]
    fn oversized_dedup_params_are_config_errors() {
        let reg = builtin_registry();
        for (bands, rows) in [(3_000_000i64, 3_000_000i64), (1 << 32, 1 << 32)] {
            let mut p = OpParams::new();
            p.insert("bands".into(), Value::Int(bands));
            p.insert("rows".into(), Value::Int(rows));
            let err = reg.build("document_minhash_deduplicator", &p).unwrap_err();
            assert!(matches!(err, dj_core::DjError::Config(_)), "{err}");
        }
        let mut p = OpParams::new();
        p.insert("max_distance".into(), Value::Int(4_294_967_299));
        let err = reg.build("document_simhash_deduplicator", &p).unwrap_err();
        assert!(matches!(err, dj_core::DjError::Config(_)), "{err}");
    }

    #[test]
    fn custom_field_propagates() {
        let reg = builtin_registry();
        let mut p = OpParams::new();
        p.insert("field".into(), Value::from("summary"));
        let op = reg.build("lowercase_mapper", &p).unwrap();
        // Behavioural check: mapper edits `summary`, not `text`.
        if let Op::Mapper(m) = op {
            let mut s = dj_core::Sample::new();
            s.set_text("KEEP");
            s.set_text_at("summary", "DOWN").unwrap();
            let mut ctx = dj_core::SampleContext::new();
            m.process(&mut s, &mut ctx).unwrap();
            assert_eq!(s.text(), "KEEP");
            assert_eq!(s.text_at("summary"), "down");
        } else {
            panic!("expected mapper");
        }
    }
}
