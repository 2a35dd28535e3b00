//! The built-in OP registry: maps recipe OP names to factories.
//!
//! This is what recipe configs resolve against, and the extension point
//! users add their own OPs to (paper §5.3, "Advanced Extension").

use std::sync::Arc;

use dj_core::{params, Op, OpRegistry, ParamView, Result};

use crate::dedup::{
    DocumentDeduplicator, MinHashDeduplicator, ParagraphDeduplicator, SimHashDeduplicator,
};
use crate::filters::*;
use crate::mappers::*;

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

macro_rules! range_factory {
    ($p:ident, $ty:ident, $dmin:expr, $dmax:expr) => {{
        let min = params::f64_or($p, "min_ratio", $dmin)?;
        let max = params::f64_or($p, "max_ratio", $dmax)?;
        let mut f = $ty::new(min, max)?;
        f.field = field_of($p)?;
        Ok(Op::Filter(Arc::new(f)))
    }};
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
    reg.register("alphanumeric_ratio_filter", |p| {
        range_factory!(p, AlnumRatioFilter, 0.25, 1.0)
    });
    reg.register("special_characters_filter", |p| {
        range_factory!(p, SpecialCharsFilter, 0.0, 0.25)
    });
    reg.register("whitespace_ratio_filter", |p| {
        range_factory!(p, WhitespaceRatioFilter, 0.0, 0.5)
    });
    reg.register("uppercase_ratio_filter", |p| {
        range_factory!(p, UppercaseRatioFilter, 0.0, 0.6)
    });
    reg.register("spec_numerals_filter", |p| {
        range_factory!(p, DigitRatioFilter, 0.0, 0.4)
    });
    reg.register("text_length_filter", |p| {
        let min = params::f64_or(p, "min_len", 10.0)?;
        let max = params::f64_or(p, "max_len", 1e7)?;
        let mut f = TextLengthFilter::new(min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("word_num_filter", |p| {
        let min = params::f64_or(p, "min_num", 5.0)?;
        let max = params::f64_or(p, "max_num", 1e6)?;
        let mut f = WordNumFilter::new(min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("average_line_length_filter", |p| {
        let min = params::f64_or(p, "min_len", 10.0)?;
        let max = params::f64_or(p, "max_len", 1e5)?;
        let mut f = AvgLineLengthFilter::new(min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("maximum_line_length_filter", |p| {
        let min = params::f64_or(p, "min_len", 10.0)?;
        let max = params::f64_or(p, "max_len", 1e5)?;
        let mut f = MaxLineLengthFilter::new(min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("paragraph_count_filter", |p| {
        let min = params::f64_or(p, "min_num", 1.0)?;
        let max = params::f64_or(p, "max_num", 1e5)?;
        let mut f = ParagraphCountFilter::new(min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("average_word_length_filter", |p| {
        let min = params::f64_or(p, "min_len", 2.0)?;
        let max = params::f64_or(p, "max_len", 12.0)?;
        let mut f = AvgWordLengthFilter::new(min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("word_entropy_filter", |p| {
        let min = params::f64_or(p, "min_entropy", 1.0)?;
        let max = params::f64_or(p, "max_entropy", 1e3)?;
        let mut f = WordEntropyFilter::new(min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("character_repetition_filter", |p| {
        let n = params::usize_or(p, "ngram", 10)?;
        let min = params::f64_or(p, "min_ratio", 0.0)?;
        let max = params::f64_or(p, "max_ratio", 0.5)?;
        let mut f = CharRepetitionFilter::new(n, min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("word_repetition_filter", |p| {
        let n = params::usize_or(p, "rep_len", 10)?;
        let min = params::f64_or(p, "min_ratio", 0.0)?;
        let max = params::f64_or(p, "max_ratio", 0.5)?;
        let mut f = WordRepetitionFilter::new(n, min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("stopwords_filter", |p| {
        let mut f = StopwordsFilter::new(params::f64_or(p, "min_ratio", 0.1)?);
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("flagged_words_filter", |p| {
        let mut f = FlaggedWordsFilter::new(params::f64_or(p, "max_ratio", 0.01)?);
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("language_id_score_filter", |p| {
        let lang = params::str_or(p, "lang", "en")?;
        let min = params::f64_or(p, "min_score", 0.5)?;
        let mut f = LanguageIdScoreFilter::new(lang, min);
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("perplexity_filter", |p| {
        let mut f = PerplexityFilter::new(params::f64_or(p, "max_ppl", 10000.0)?);
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("token_num_filter", |p| {
        let min = params::f64_or(p, "min_num", 10.0)?;
        let max = params::f64_or(p, "max_num", 1e7)?;
        let mut f = TokenNumFilter::new(min, max)?;
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("quality_score_filter", |p| {
        let mut f = QualityScoreFilter::new(params::f64_or(p, "min_score", 0.5)?);
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("meta_tag_filter", |p| {
        let key = params::str_or(p, "key", "language")?;
        let mut allowed = params::str_list(p, "allowed")?;
        if allowed.is_empty() {
            allowed.push("EN".to_string());
        }
        Ok(Op::Filter(Arc::new(MetaTagFilter::new(key, allowed)?)))
    });
    reg.register("star_count_filter", |p| {
        let min = params::usize_or(p, "min_stars", 10)? as i64;
        Ok(Op::Filter(Arc::new(StarCountFilter::new(min))))
    });
    reg.register("action_verb_filter", |p| {
        let mut f = ActionVerbFilter::new(params::usize_or(p, "min_pairs", 1)?);
        f.field = field_of(p)?;
        Ok(Op::Filter(Arc::new(f)))
    });
    reg.register("suffix_filter", |p| {
        let mut allowed = params::str_list(p, "allowed")?;
        if allowed.is_empty() {
            allowed = vec!["txt".into(), "md".into(), "py".into(), "rs".into()];
        }
        Ok(Op::Filter(Arc::new(SuffixFilter::new(allowed)?)))
    });
    reg.register("stats_range_filter", |p| {
        let key = params::str_or(p, "key", "")?;
        let min = params::f64_or(p, "min", f64::MIN)?;
        let max = params::f64_or(p, "max", f64::MAX)?;
        Ok(Op::Filter(Arc::new(StatsRangeFilter::new(key, min, max)?)))
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
