//! Built-in word lists: stopwords, flagged words, and a verb/noun lexicon
//! for the diversity analysis (the verb-noun pie plots of paper Fig. 5).
//!
//! The original system downloads these as "external resources" from a cloud
//! drive; we embed compact, synthetic-corpus-matched lists. All functions
//! return owned `FxHashSet`s so callers can extend them with user resources.

use dj_core::Spans;
use dj_hash::FxHashSet;

/// English stopwords (fluent text has a healthy fraction of these).
pub fn english_stopwords() -> FxHashSet<String> {
    to_set(&[
        "the", "a", "an", "and", "or", "but", "if", "of", "at", "by", "for", "with", "about",
        "against", "between", "into", "through", "during", "before", "after", "above", "below",
        "to", "from", "up", "down", "in", "out", "on", "off", "over", "under", "again", "then",
        "once", "here", "there", "when", "where", "why", "how", "all", "any", "both", "each",
        "few", "more", "most", "other", "some", "such", "no", "nor", "not", "only", "own", "same",
        "so", "than", "too", "very", "can", "will", "just", "should", "now", "is", "are", "was",
        "were", "be", "been", "being", "have", "has", "had", "do", "does", "did", "i", "you", "he",
        "she", "it", "we", "they", "this", "that", "these", "those", "as", "their", "them", "his",
        "her", "its", "our", "your", "my", "me", "him", "us", "what", "which", "who", "whom",
        "whose", "also", "because", "while", "until",
    ])
}

/// Flagged (toxic/adult/spam) vocabulary used by the synthetic generators
/// and the flagged-words filter. Kept deliberately innocuous: these are
/// *placeholder* tokens the generators inject to mark "toxic" documents.
pub fn flagged_words() -> FxHashSet<String> {
    to_set(&[
        "flagged0",
        "flagged1",
        "flagged2",
        "flagged3",
        "flagged4",
        "flagged5",
        "flagged6",
        "flagged7",
        "flagged8",
        "flagged9",
        "spamword",
        "scamword",
        "toxicword",
        "casino",
        "jackpot",
        "clickbait",
        "xxxad",
        "freemoney",
        "hotdeal",
        "winbig",
    ])
}

/// Common English verbs (diversity analysis: "top 20 most common root
/// verbs", Fig. 5).
pub fn common_verbs() -> FxHashSet<String> {
    to_set(&[
        "write",
        "create",
        "explain",
        "describe",
        "summarize",
        "translate",
        "list",
        "give",
        "generate",
        "make",
        "find",
        "tell",
        "show",
        "answer",
        "compare",
        "classify",
        "identify",
        "rewrite",
        "convert",
        "calculate",
        "analyze",
        "design",
        "suggest",
        "provide",
        "edit",
        "compose",
        "draft",
        "outline",
        "evaluate",
        "predict",
        "solve",
        "implement",
        "build",
        "improve",
        "fix",
        "extract",
        "label",
        "rank",
        "sort",
        "plan",
    ])
}

/// Common English nouns accepted as direct objects in the diversity probe.
pub fn common_nouns() -> FxHashSet<String> {
    to_set(&[
        "story",
        "poem",
        "essay",
        "summary",
        "list",
        "email",
        "letter",
        "code",
        "function",
        "program",
        "sentence",
        "paragraph",
        "article",
        "report",
        "question",
        "answer",
        "recipe",
        "plan",
        "review",
        "description",
        "explanation",
        "translation",
        "example",
        "table",
        "outline",
        "speech",
        "script",
        "headline",
        "title",
        "joke",
        "song",
        "response",
        "text",
        "document",
        "message",
        "argument",
        "proof",
        "solution",
        "algorithm",
        "class",
    ])
}

fn to_set(words: &[&str]) -> FxHashSet<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// Extract `(verb, object)` pairs from a text: a lexicon verb followed
/// within 4 words by a lexicon noun. A cheap stand-in for dependency
/// parsing that drives the same diversity statistics.
pub fn verb_noun_pairs(
    words: Spans<'_>,
    verbs: &FxHashSet<String>,
    nouns: &FxHashSet<String>,
) -> Vec<(String, String)> {
    let lowered: Vec<String> = words.iter().map(str::to_lowercase).collect();
    let mut pairs = Vec::new();
    for (i, w) in lowered.iter().enumerate() {
        if verbs.contains(w) {
            for obj in lowered.iter().skip(i + 1).take(4) {
                if nouns.contains(obj) {
                    pairs.push((w.clone(), obj.clone()));
                    break;
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::SampleContext;

    fn pairs_of(text: &str) -> Vec<(String, String)> {
        let mut ctx = SampleContext::new();
        verb_noun_pairs(ctx.words(text), &common_verbs(), &common_nouns())
    }

    #[test]
    fn lexicons_nonempty_and_lowercase() {
        for set in [
            english_stopwords(),
            flagged_words(),
            common_verbs(),
            common_nouns(),
        ] {
            assert!(!set.is_empty());
            assert!(set.iter().all(|w| *w == w.to_lowercase()));
        }
    }

    #[test]
    fn verb_noun_extraction() {
        let pairs = pairs_of("Write a short story about dragons and explain the plan");
        assert!(pairs.contains(&("write".into(), "story".into())));
        assert!(pairs.contains(&("explain".into(), "plan".into())));
    }

    #[test]
    fn verb_without_object_is_skipped() {
        let pairs = pairs_of("write about nothing in particular today friends");
        assert!(pairs.is_empty());
    }

    #[test]
    fn object_window_is_limited() {
        // noun appears 6 words after verb → outside the 4-word window.
        let pairs = pairs_of("write one two three four five story");
        assert!(pairs.is_empty());
    }
}
