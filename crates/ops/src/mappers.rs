//! Mapper OPs: in-place text editing (Table 1).
//!
//! Each mapper operates on a configurable text field (default `"text"`,
//! paper §3.3: "each OP process on 'text' field, which can be freely
//! specified to other ... data fields"), reports whether it changed the
//! text (so the executor can invalidate the sample context), and registers
//! a factory in [`crate::registry`].
//!
//! An edit is a `fn(&str) -> Cow<str>` over the borrowed field: text that
//! needs no change comes back borrowed and costs no allocation, changed
//! text costs the one buffer that replaces it ([`edit_field`]).

use std::borrow::Cow;

use dj_core::{
    ContextNeeds, DjError, FieldSet, Mapper, OpCost, Result, Sample, SampleContext, TEXT_KEY,
};
use dj_text::normalize::{self, Rewrite};

/// Every mapper in this catalog reads and rewrites exactly its configured
/// text field — declare that footprint so the columnar executor can decode
/// only that column and splice the rest through untouched.
macro_rules! field_footprint {
    () => {
        fn fields_read(&self) -> FieldSet {
            FieldSet::of([self.field.as_str()])
        }
        fn fields_written(&self) -> FieldSet {
            FieldSet::of([self.field.as_str()])
        }
    };
}

/// Shared plumbing: borrow the configured field, transform, and write back
/// only a changed text. Returns whether the text changed.
fn edit_field(
    sample: &mut Sample,
    field: &str,
    f: impl FnOnce(&str) -> Cow<'_, str>,
) -> Result<bool> {
    let old = sample.text_at(field);
    let new = f(old);
    if new == old {
        return Ok(false);
    }
    let new = new.into_owned();
    sample.set_text_at(field, new)?;
    Ok(true)
}

/// Push `pieces` joined by `sep`, as `[..].join(sep)` would.
fn push_joined<'p>(out: &mut Rewrite<'_>, pieces: impl IntoIterator<Item = &'p str>, sep: &str) {
    for (i, piece) in pieces.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(piece);
    }
}

macro_rules! simple_mapper {
    ($(#[$doc:meta])* $name:ident, $op_name:literal, $func:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            pub field: String,
        }

        impl Default for $name {
            fn default() -> Self {
                Self { field: TEXT_KEY.to_string() }
            }
        }

        impl $name {
            pub fn new() -> Self {
                Self::default()
            }

            pub fn on_field(field: &str) -> Self {
                Self { field: field.to_string() }
            }
        }

        impl Mapper for $name {
            fn name(&self) -> &'static str {
                $op_name
            }

            fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
                edit_field(sample, &self.field, $func)
            }

            field_footprint!();
        }
    };
}

simple_mapper!(
    /// Collapse whitespace runs and normalize newlines
    /// (`whitespace_normalization_mapper`).
    WhitespaceNormalizationMapper,
    "whitespace_normalization_mapper",
    normalize::normalize_whitespace
);

simple_mapper!(
    /// Map typographic/fullwidth punctuation to ASCII
    /// (`punctuation_normalization_mapper`).
    PunctuationNormalizationMapper,
    "punctuation_normalization_mapper",
    normalize::normalize_punctuation
);

simple_mapper!(
    /// Repair common mojibake sequences (`fix_unicode_mapper`, Table 1's
    /// "fix messy codes").
    FixUnicodeMapper,
    "fix_unicode_mapper",
    normalize::fix_mojibake
);

simple_mapper!(
    /// Remove hyperlinks (`clean_links_mapper`).
    CleanLinksMapper,
    "clean_links_mapper",
    normalize::remove_links
);

simple_mapper!(
    /// Remove email addresses (`clean_email_mapper`).
    CleanEmailMapper,
    "clean_email_mapper",
    normalize::remove_emails
);

simple_mapper!(
    /// Remove IPv4 addresses (`clean_ip_mapper`).
    CleanIpMapper,
    "clean_ip_mapper",
    normalize::remove_ips
);

simple_mapper!(
    /// Strip HTML tags, unescaping common entities (`clean_html_mapper`).
    CleanHtmlMapper,
    "clean_html_mapper",
    normalize::strip_html
);

simple_mapper!(
    /// Strip LaTeX preamble/headers (`remove_header_mapper`).
    RemoveHeaderMapper,
    "remove_header_mapper",
    normalize::strip_latex_header
);

simple_mapper!(
    /// Strip code comments (`remove_comments_mapper`).
    RemoveCommentsMapper,
    "remove_comments_mapper",
    normalize::strip_code_comments
);

simple_mapper!(
    /// Lowercase the text (`lowercase_mapper`).
    LowercaseMapper,
    "lowercase_mapper",
    normalize::lowercase
);

simple_mapper!(
    /// Collapse consecutive identical lines
    /// (`remove_repeat_lines_mapper`).
    RemoveRepeatLinesMapper,
    "remove_repeat_lines_mapper",
    normalize::dedup_consecutive_lines
);

/// Remove words longer than `max_len` characters
/// (`remove_long_words_mapper`) — typically base64 blobs and URL remnants.
#[derive(Debug, Clone)]
pub struct RemoveLongWordsMapper {
    pub field: String,
    pub max_len: usize,
}

impl RemoveLongWordsMapper {
    pub fn new(max_len: usize) -> Self {
        RemoveLongWordsMapper {
            field: TEXT_KEY.to_string(),
            max_len,
        }
    }
}

impl Mapper for RemoveLongWordsMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "remove_long_words_mapper"
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        let max = self.max_len;
        edit_field(sample, &self.field, |t| {
            let mut out = Rewrite::new(t);
            for (i, line) in t.split('\n').enumerate() {
                if i > 0 {
                    out.push_str("\n");
                }
                let short = line.split(' ').filter(|w| w.chars().count() <= max);
                push_joined(&mut out, short, " ");
            }
            out.finish()
        })
    }
}

/// Remove a configurable set of characters
/// (`remove_specific_chars_mapper`).
#[derive(Debug, Clone)]
pub struct RemoveSpecificCharsMapper {
    pub field: String,
    pub chars: Vec<char>,
}

impl RemoveSpecificCharsMapper {
    pub fn new(chars: &str) -> Self {
        RemoveSpecificCharsMapper {
            field: TEXT_KEY.to_string(),
            chars: chars.chars().collect(),
        }
    }
}

impl Mapper for RemoveSpecificCharsMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "remove_specific_chars_mapper"
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        edit_field(sample, &self.field, |t| {
            let mut out = Rewrite::new(t);
            for c in t.chars().filter(|c| !self.chars.contains(c)) {
                out.push(c);
            }
            out.finish()
        })
    }
}

/// Drop everything after a bibliography marker
/// (`remove_bibliography_mapper`).
#[derive(Debug, Clone, Default)]
pub struct RemoveBibliographyMapper {
    pub field: String,
}

impl RemoveBibliographyMapper {
    pub fn new() -> Self {
        RemoveBibliographyMapper {
            field: TEXT_KEY.to_string(),
        }
    }
}

impl Mapper for RemoveBibliographyMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "remove_bibliography_mapper"
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        edit_field(sample, &self.field, |t| {
            const MARKERS: &[&str] = &[
                "\\bibliography",
                "\\begin{thebibliography}",
                "\nReferences\n",
                "\nREFERENCES\n",
            ];
            let cut = MARKERS.iter().filter_map(|m| t.find(m)).min();
            Cow::Borrowed(match cut {
                Some(pos) => t[..pos].trim_end(),
                None => t,
            })
        })
    }
}

/// Drop table-like lines (many `|`/`+--` cells) (`remove_table_text_mapper`).
#[derive(Debug, Clone, Default)]
pub struct RemoveTableTextMapper {
    pub field: String,
}

impl RemoveTableTextMapper {
    pub fn new() -> Self {
        RemoveTableTextMapper {
            field: TEXT_KEY.to_string(),
        }
    }
}

impl Mapper for RemoveTableTextMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "remove_table_text_mapper"
    }

    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::LINES
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        edit_field(sample, &self.field, |t| {
            let prose = t.split('\n').filter(|line| {
                let pipes = line.matches('|').count();
                let dashes = line.matches("--").count();
                pipes < 3 && dashes < 3
            });
            let mut out = Rewrite::new(t);
            push_joined(&mut out, prose, "\n");
            out.finish()
        })
    }
}

/// Split text into one sentence per line (`sentence_split_mapper`) —
/// the pre-tokenization layout several training pipelines expect.
#[derive(Debug, Clone, Default)]
pub struct SentenceSplitMapper {
    pub field: String,
}

impl SentenceSplitMapper {
    pub fn new() -> Self {
        SentenceSplitMapper {
            field: TEXT_KEY.to_string(),
        }
    }
}

impl Mapper for SentenceSplitMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "sentence_split_mapper"
    }

    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::SENTENCES
    }

    fn cost(&self) -> OpCost {
        OpCost::Moderate
    }

    fn process(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<bool> {
        edit_field(sample, &self.field, |t| {
            let mut out = Rewrite::new(t);
            push_joined(&mut out, ctx.sentences(t), "\n");
            out.finish()
        })
    }
}

/// Truncate to at most `max_chars` characters (`text_truncate_mapper`).
#[derive(Debug, Clone)]
pub struct TextTruncateMapper {
    pub field: String,
    pub max_chars: usize,
}

impl TextTruncateMapper {
    pub fn new(max_chars: usize) -> Result<Self> {
        if max_chars == 0 {
            return Err(DjError::Config(
                "text_truncate_mapper: max_chars must be positive".into(),
            ));
        }
        Ok(TextTruncateMapper {
            field: TEXT_KEY.to_string(),
            max_chars,
        })
    }
}

impl Mapper for TextTruncateMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "text_truncate_mapper"
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        let max = self.max_chars;
        edit_field(sample, &self.field, |t| {
            Cow::Borrowed(t.char_indices().nth(max).map_or(t, |(byte, _)| &t[..byte]))
        })
    }
}

/// Replace every match of a literal pattern (`replace_content_mapper`).
#[derive(Debug, Clone)]
pub struct ReplaceContentMapper {
    pub field: String,
    pub pattern: String,
    pub replacement: String,
}

impl ReplaceContentMapper {
    pub fn new(pattern: &str, replacement: &str) -> Result<Self> {
        if pattern.is_empty() {
            return Err(DjError::Config(
                "replace_content_mapper: pattern must be non-empty".into(),
            ));
        }
        Ok(ReplaceContentMapper {
            field: TEXT_KEY.to_string(),
            pattern: pattern.to_string(),
            replacement: replacement.to_string(),
        })
    }
}

impl Mapper for ReplaceContentMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "replace_content_mapper"
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        edit_field(sample, &self.field, |t| {
            if t.contains(&self.pattern) {
                Cow::Owned(t.replace(&self.pattern, &self.replacement))
            } else {
                Cow::Borrowed(t)
            }
        })
    }
}

/// Collapse whole-text word repetitions: if the same sentence appears more
/// than `max_repeats` times, keep only the first occurrences
/// (`remove_repeat_sentences_mapper`).
#[derive(Debug, Clone)]
pub struct RemoveRepeatSentencesMapper {
    pub field: String,
    pub max_repeats: usize,
}

impl RemoveRepeatSentencesMapper {
    pub fn new(max_repeats: usize) -> Self {
        RemoveRepeatSentencesMapper {
            field: TEXT_KEY.to_string(),
            max_repeats: max_repeats.max(1),
        }
    }
}

impl Mapper for RemoveRepeatSentencesMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "remove_repeat_sentences_mapper"
    }

    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::SENTENCES
    }

    fn cost(&self) -> OpCost {
        OpCost::Moderate
    }

    fn process(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<bool> {
        edit_field(sample, &self.field, |t| {
            // Keyed by the sentence itself: a bare `hash64` key counted two
            // different sentences that collide as repeats of each other. The
            // default hasher, because the keys are corpus text.
            let mut seen: std::collections::HashMap<&str, usize> = Default::default();
            let kept = ctx.sentences(t).iter().filter(|s| {
                let count = seen.entry(*s).or_insert(0);
                *count += 1;
                *count <= self.max_repeats
            });
            let mut out = Rewrite::new(t);
            push_joined(&mut out, kept, " ");
            out.finish()
        })
    }
}

/// Expand simple LaTeX `\newcommand` macros then drop their definitions
/// (`expand_macro_mapper`).
#[derive(Debug, Clone, Default)]
pub struct ExpandMacroMapper {
    pub field: String,
}

impl ExpandMacroMapper {
    pub fn new() -> Self {
        ExpandMacroMapper {
            field: TEXT_KEY.to_string(),
        }
    }
}

impl Mapper for ExpandMacroMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "expand_macro_mapper"
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        edit_field(sample, &self.field, |t| {
            if !t.contains("\\newcommand{") {
                return Cow::Borrowed(t); // nothing defined, nothing to expand
            }
            // Collect zero-argument \newcommand{\name}{body} definitions.
            let mut macros: Vec<(String, String)> = Vec::new();
            let mut kept_lines = Vec::new();
            for line in t.split('\n') {
                let trimmed = line.trim_start();
                if let Some(rest) = trimmed.strip_prefix("\\newcommand{") {
                    if let Some((name, tail)) = rest.split_once('}') {
                        if let Some(body) = tail.strip_prefix('{').and_then(|b| b.strip_suffix('}'))
                        {
                            macros.push((name.to_string(), body.to_string()));
                            continue;
                        }
                    }
                }
                kept_lines.push(line);
            }
            let mut out = kept_lines.join("\n");
            for (name, body) in &macros {
                out = out.replace(name.as_str(), body);
            }
            Cow::Owned(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &dyn Mapper, text: &str) -> (String, bool) {
        let mut s = Sample::from_text(text);
        let mut ctx = SampleContext::new();
        let changed = m.process(&mut s, &mut ctx).unwrap();
        (s.text().to_string(), changed)
    }

    #[test]
    fn whitespace_mapper() {
        let (out, changed) = run(&WhitespaceNormalizationMapper::new(), "a   b\n\n\n\nc");
        assert_eq!(out, "a b\n\nc");
        assert!(changed);
        let (_, changed2) = run(&WhitespaceNormalizationMapper::new(), "clean");
        assert!(!changed2);
    }

    #[test]
    fn punctuation_and_unicode_mappers() {
        assert_eq!(
            run(&PunctuationNormalizationMapper::new(), "“x”").0,
            "\"x\""
        );
        assert_eq!(run(&FixUnicodeMapper::new(), "donâ€™t").0, "don't");
    }

    #[test]
    fn cleaning_mappers() {
        assert_eq!(
            run(&CleanLinksMapper::new(), "go to https://a.b now").0,
            "go to now"
        );
        assert_eq!(run(&CleanEmailMapper::new(), "hi a@b.com bye").0, "hi bye");
        assert_eq!(run(&CleanIpMapper::new(), "ip 10.0.0.1 end").0, "ip end");
        assert_eq!(
            run(&CleanHtmlMapper::new(), "<b>bold</b> text").0,
            "bold text"
        );
    }

    #[test]
    fn structural_mappers() {
        let latex = "\\documentclass{a}\n\\begin{document}\nbody\n\\end{document}";
        assert_eq!(run(&RemoveHeaderMapper::new(), latex).0, "body");
        assert_eq!(
            run(&RemoveCommentsMapper::new(), "x = 1 // no\ny = 2").0,
            "x = 1\ny = 2"
        );
        assert_eq!(run(&LowercaseMapper::new(), "AbC").0, "abc");
    }

    #[test]
    fn long_words_removed_per_line() {
        let m = RemoveLongWordsMapper::new(5);
        let (out, _) = run(&m, "short loooooooong ok\nfine");
        assert_eq!(out, "short ok\nfine");
    }

    #[test]
    fn specific_chars_removed() {
        let m = RemoveSpecificCharsMapper::new("◆●★");
        assert_eq!(run(&m, "a◆b●c★d").0, "abcd");
    }

    #[test]
    fn bibliography_cut() {
        let m = RemoveBibliographyMapper::new();
        let (out, _) = run(&m, "body text\n\\bibliography{refs}\n[1] citation");
        assert_eq!(out, "body text");
        let (kept, changed) = run(&m, "no refs here");
        assert_eq!(kept, "no refs here");
        assert!(!changed);
    }

    #[test]
    fn table_lines_dropped() {
        let m = RemoveTableTextMapper::new();
        let (out, _) = run(&m, "prose line\n| a | b | c |\n+--+--+--+\nmore prose");
        assert_eq!(out, "prose line\nmore prose");
    }

    #[test]
    fn sentence_split() {
        let m = SentenceSplitMapper::new();
        let (out, _) = run(&m, "One. Two! Three?");
        assert_eq!(out, "One.\nTwo!\nThree?");
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        let m = TextTruncateMapper::new(3).unwrap();
        assert_eq!(run(&m, "你好世界啊").0, "你好世");
        assert_eq!(run(&m, "ab").0, "ab");
        assert!(TextTruncateMapper::new(0).is_err());
    }

    #[test]
    fn replace_content() {
        let m = ReplaceContentMapper::new("bad", "good").unwrap();
        assert_eq!(run(&m, "bad bad day").0, "good good day");
        assert!(ReplaceContentMapper::new("", "x").is_err());
    }

    #[test]
    fn repeat_sentences_capped() {
        let m = RemoveRepeatSentencesMapper::new(2);
        let (out, _) = run(&m, "Hi. Hi. Hi. Hi. Bye.");
        assert_eq!(out, "Hi. Hi. Bye.");
    }

    #[test]
    fn repeat_lines_collapsed() {
        let m = RemoveRepeatLinesMapper::new();
        assert_eq!(run(&m, "a\na\nb").0, "a\nb");
    }

    #[test]
    fn macro_expansion() {
        let m = ExpandMacroMapper::new();
        let src = "\\newcommand{\\model}{LLaMA}\nWe train \\model today";
        assert_eq!(run(&m, src).0, "We train LLaMA today");
    }

    #[test]
    fn mapper_on_custom_field() {
        let m = LowercaseMapper::on_field("summary");
        let mut s = Sample::new();
        s.set_text_at("summary", "LOUD").unwrap();
        s.set_text("UNTOUCHED");
        let mut ctx = SampleContext::new();
        m.process(&mut s, &mut ctx).unwrap();
        assert_eq!(s.text_at("summary"), "loud");
        assert_eq!(s.text(), "UNTOUCHED");
    }
}

/// Text augmentation for fine-tuning diversity (Table 1: "Enable text
/// enhancement"): deterministic, seeded synonym substitution from a small
/// built-in thesaurus plus optional light word dropout. Augmentation never
/// touches samples below `min_words` (too little context to rewrite safely).
#[derive(Debug, Clone)]
pub struct TextAugmentMapper {
    pub field: String,
    /// Per-word probability of synonym substitution.
    pub synonym_rate: f64,
    /// Per-word probability of dropout.
    pub dropout_rate: f64,
    pub min_words: usize,
    pub seed: u64,
}

impl TextAugmentMapper {
    pub fn new(synonym_rate: f64, dropout_rate: f64, seed: u64) -> Result<Self> {
        if !(0.0..=1.0).contains(&synonym_rate) || !(0.0..=1.0).contains(&dropout_rate) {
            return Err(DjError::Config(
                "text_augment_mapper: rates must be in [0,1]".into(),
            ));
        }
        Ok(TextAugmentMapper {
            field: TEXT_KEY.to_string(),
            synonym_rate,
            dropout_rate,
            min_words: 6,
            seed,
        })
    }

    fn synonym(word: &str) -> Option<&'static str> {
        const THESAURUS: &[(&str, &str)] = &[
            ("big", "large"),
            ("large", "big"),
            ("small", "little"),
            ("little", "small"),
            ("fast", "quick"),
            ("quick", "fast"),
            ("good", "fine"),
            ("fine", "good"),
            ("begin", "start"),
            ("start", "begin"),
            ("show", "display"),
            ("display", "show"),
            ("make", "create"),
            ("create", "make"),
            ("help", "assist"),
            ("assist", "help"),
            ("important", "crucial"),
            ("crucial", "important"),
            ("method", "approach"),
            ("approach", "method"),
            ("result", "outcome"),
            ("outcome", "result"),
        ];
        let lower = normalize::lowercase(word);
        THESAURUS.iter().find(|(k, _)| *k == lower).map(|(_, v)| *v)
    }
}

impl Mapper for TextAugmentMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "text_augment_mapper"
    }

    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::WORDS
    }

    fn cost(&self) -> OpCost {
        OpCost::Moderate
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        // Deterministic per-sample stream: seed ⊕ content hash, so the same
        // sample always augments the same way (cache/resume friendly).
        let mut state = self.seed ^ dj_hash::hash64(sample.text_at(&self.field).as_bytes());
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let syn = self.synonym_rate;
        let drop = self.dropout_rate;
        let min_words = self.min_words;
        edit_field(sample, &self.field, |t| {
            if t.split(' ').filter(|w| !w.is_empty()).count() < min_words {
                return Cow::Borrowed(t);
            }
            let augmented = t.split(' ').filter_map(|w| {
                let r = next();
                if r < drop && !w.is_empty() {
                    return None; // dropout
                }
                let synonym = if r < drop + syn {
                    Self::synonym(w)
                } else {
                    None
                };
                Some(synonym.unwrap_or(w))
            });
            let mut out = Rewrite::new(t);
            push_joined(&mut out, augmented, " ");
            out.finish()
        })
    }
}

/// Remove copyright/license boilerplate lines (`clean_copyright_mapper`):
/// drops lines containing copyright markers within the leading comment
/// block of code files, and standalone copyright footer lines in text.
#[derive(Debug, Clone, Default)]
pub struct CleanCopyrightMapper {
    pub field: String,
}

impl CleanCopyrightMapper {
    pub fn new() -> Self {
        CleanCopyrightMapper {
            field: TEXT_KEY.to_string(),
        }
    }
}

impl Mapper for CleanCopyrightMapper {
    field_footprint!();
    fn name(&self) -> &'static str {
        "clean_copyright_mapper"
    }

    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::LINES
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        edit_field(sample, &self.field, |t| {
            let kept = t
                .split('\n')
                .filter(|line| !normalize::is_copyright_line(line));
            let mut out = Rewrite::new(t);
            push_joined(&mut out, kept, "\n");
            out.finish()
        })
    }
}

#[cfg(test)]
mod augment_tests {
    use super::*;

    #[test]
    fn augmentation_is_deterministic_and_bounded() {
        let m = TextAugmentMapper::new(0.5, 0.1, 7).unwrap();
        let text = "the big method shows a good result for the fast analysis pipeline";
        let mut a = Sample::from_text(text);
        let mut b = Sample::from_text(text);
        let mut ctx = SampleContext::new();
        m.process(&mut a, &mut ctx).unwrap();
        ctx.invalidate();
        m.process(&mut b, &mut ctx).unwrap();
        assert_eq!(a.text(), b.text(), "same sample, same augmentation");
        // Word count changes only by dropout.
        let before = text.split(' ').count();
        let after = a.text().split(' ').count();
        assert!(after <= before && after >= before / 2);
    }

    #[test]
    fn augmentation_substitutes_synonyms() {
        let m = TextAugmentMapper::new(1.0, 0.0, 3).unwrap();
        let mut s =
            Sample::from_text("the big method gives a good result and a fast outcome today");
        let mut ctx = SampleContext::new();
        let changed = m.process(&mut s, &mut ctx).unwrap();
        assert!(changed);
        assert!(s.text().contains("large") || s.text().contains("approach"));
        // Dropout disabled → word count preserved.
        assert_eq!(s.text().split(' ').count(), 12);
    }

    #[test]
    fn short_samples_are_left_alone() {
        let m = TextAugmentMapper::new(1.0, 1.0, 1).unwrap();
        let mut s = Sample::from_text("big good fast");
        let mut ctx = SampleContext::new();
        assert!(!m.process(&mut s, &mut ctx).unwrap());
        assert_eq!(s.text(), "big good fast");
        assert!(TextAugmentMapper::new(1.5, 0.0, 1).is_err());
    }

    #[test]
    fn copyright_lines_removed() {
        let m = CleanCopyrightMapper::new();
        let src = "// Copyright 2023 Example Corp\n// SPDX-License-Identifier: MIT\nfn main() {}\n// normal comment";
        let mut s = Sample::from_text(src);
        let mut ctx = SampleContext::new();
        m.process(&mut s, &mut ctx).unwrap();
        assert_eq!(s.text(), "fn main() {}\n// normal comment");
    }
}
