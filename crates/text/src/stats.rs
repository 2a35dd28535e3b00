//! Per-sample text statistics backing the Filter OPs and the analyzer's
//! default 13 dimensions (paper §4.2: "the summary of per-sample statistics
//! covers 13 dimensions ... sample perplexity, word count, flagged word
//! percentage, and paragraph length, among others").
//!
//! Every function reads borrowed views ([`Spans`] of words or lines, or
//! the text itself) and none copies text. Character-class ratios are not
//! here: they are methods of [`dj_core::CharCounts`], the shared `CHARS`
//! view.

use dj_core::Spans;
use dj_hash::{FxHashMap, FxHashSet};

/// Character-level n-gram repetition ratio: fraction of n-gram occurrences
/// belonging to n-grams that appear more than once. High values indicate
/// boilerplate/spam (mirrors `character_repetition_filter`).
///
/// `scratch` is working memory (contents unspecified before and after);
/// pass the sample context's to count without allocating.
pub fn char_rep_ratio(text: &str, n: usize, scratch: &mut Vec<u64>) -> f64 {
    let bytes = text.as_bytes();
    let count = if text.is_ascii() {
        bytes.len()
    } else {
        text.chars().count()
    };
    let windows = window_count(count, n);
    scratch.clear();
    scratch.resize(table_len(windows), 0);
    if text.is_ascii() {
        let elems = bytes.iter().map(|&b| char_hash(b as u32)).enumerate();
        let same = |a: usize, b: usize| bytes[a..a + n] == bytes[b..b + n];
        return repeated_share(elems, windows, n, bytes.len(), scratch, same);
    }
    let elems = text.char_indices().map(|(at, c)| (at, char_hash(c as u32)));
    let same = |a: usize, b: usize| text[a..].chars().take(n).eq(text[b..].chars().take(n));
    repeated_share(elems, windows, n, bytes.len(), scratch, same)
}

/// Word-level n-gram repetition ratio (mirrors `word_repetition_filter`,
/// the `rep_len` parameter of the paper's Fig. 5 recipe).
///
/// `scratch` as for [`char_rep_ratio`].
pub fn word_rep_ratio(words: Spans<'_>, n: usize, scratch: &mut Vec<u64>) -> f64 {
    let windows = window_count(words.len(), n);
    // Each word is hashed once, into the front of the scratch buffer; the
    // window table takes the rest.
    scratch.clear();
    scratch.extend(words.iter().map(|w| dj_hash::hash64(w.as_bytes())));
    scratch.resize(words.len() + table_len(windows), 0);
    let (hashes, table) = scratch.split_at_mut(words.len());
    let elems = hashes.iter().copied().enumerate();
    let same = |a: usize, b: usize| (0..n).all(|k| words.get(a + k) == words.get(b + k));
    repeated_share(elems, windows, n, words.len(), table, same)
}

/// Number of n-element windows over `count` elements.
fn window_count(count: usize, n: usize) -> usize {
    if n == 0 || count < n {
        0
    } else {
        count - n + 1
    }
}

/// Slots of the open-addressing table that counts `windows` windows: a
/// power of two, at most half full.
fn table_len(windows: usize) -> usize {
    if windows == 0 {
        0
    } else {
        (2 * windows).next_power_of_two()
    }
}

/// Multiplier of the rolling polynomial window hash (odd, so it is
/// invertible mod 2^64) and of the per-character hash.
const ROLL: u64 = 0x9e37_79b9_7f4a_7c15;

fn char_hash(c: u32) -> u64 {
    (c as u64 + 1).wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// Fraction of the `windows` n-element windows over `elems` whose n-gram
/// occurs more than once.
///
/// `elems` yields `(start, hash)` per element, `start < bound` being where
/// a window beginning at that element starts. Windows are hashed
/// incrementally — one multiply-add for the element entering, one for the
/// element leaving — and counted in the zeroed open-addressing `table`
/// ([`table_len`] slots). A hash match only nominates a candidate:
/// `same(a, b)` decides whether the windows starting at `a` and `b` hold
/// the same n-gram, so the count is exact whatever the hash does.
fn repeated_share<I>(
    elems: I,
    windows: usize,
    n: usize,
    bound: usize,
    table: &mut [u64],
    same: impl Fn(usize, usize) -> bool,
) -> f64
where
    I: Iterator<Item = (usize, u64)> + Clone,
{
    if windows == 0 {
        return 0.0;
    }
    let slots = table.len();
    debug_assert_eq!(slots, table_len(windows));
    // A slot holds `tag | repeated-flag | start + 1`; 0 is empty.
    let start_bits = usize::BITS - bound.leading_zeros();
    let start_mask = (1u64 << start_bits) - 1;
    let repeated_flag = 1u64 << start_bits;
    let tag_mask = !(start_mask | repeated_flag);
    let slot_shift = u64::BITS - slots.trailing_zeros();

    let top = ROLL.wrapping_pow(n as u32 - 1);
    let mut lead = elems.clone();
    let mut rolling = 0u64;
    for (_, h) in lead.by_ref().take(n - 1) {
        rolling = rolling.wrapping_mul(ROLL).wrapping_add(h);
    }
    let mut singles = 0usize;
    for ((_, entering), (start, leaving)) in lead.zip(elems) {
        rolling = rolling.wrapping_mul(ROLL).wrapping_add(entering);
        // The polynomial's low bits are weak; fold the high half in and
        // spread it before taking the slot from the top bits.
        let hash = (rolling ^ (rolling >> 32)).wrapping_mul(ROLL);
        rolling = rolling.wrapping_sub(leaving.wrapping_mul(top));

        let tag = hash & tag_mask;
        let mut slot = (hash >> slot_shift) as usize;
        loop {
            let entry = table[slot];
            if entry == 0 {
                table[slot] = tag | (start as u64 + 1);
                singles += 1;
                break;
            }
            let first = (entry & start_mask) as usize - 1;
            if entry & tag_mask == tag && same(first, start) {
                if entry & repeated_flag == 0 {
                    table[slot] = entry | repeated_flag;
                    singles -= 1;
                }
                break;
            }
            slot = (slot + 1) & (slots - 1);
        }
    }
    (windows - singles) as f64 / windows as f64
}

/// Mean line length in characters (0 for empty text).
pub fn avg_line_length(lines: Spans<'_>) -> f64 {
    if lines.is_empty() {
        return 0.0;
    }
    lines.iter().map(|l| l.chars().count()).sum::<usize>() as f64 / lines.len() as f64
}

/// Longest line length in characters.
pub fn max_line_length(lines: Spans<'_>) -> f64 {
    lines.iter().map(|l| l.chars().count()).max().unwrap_or(0) as f64
}

/// Mean word length in characters.
pub fn avg_word_length(words: Spans<'_>) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    words.iter().map(|w| w.chars().count()).sum::<usize>() as f64 / words.len() as f64
}

/// Fraction of words found in `lexicon` (case-insensitive). Backs both the
/// stopword-ratio filter (fluency signal) and the flagged-words filter
/// (toxicity signal).
pub fn lexicon_ratio(words: Spans<'_>, lexicon: &FxHashSet<String>) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    let mut lowered = String::new();
    let hits = words
        .iter()
        .filter(|w| lexicon.contains(crate::normalize::lowercase_into(w, &mut lowered)))
        .count();
    hits as f64 / words.len() as f64
}

/// Count of paragraphs (blank-line separated blocks).
pub fn paragraph_count(text: &str) -> usize {
    text.split("\n\n").filter(|p| !p.trim().is_empty()).count()
}

/// Shannon entropy (bits) of the word distribution — the analyzer's
/// linguistic-diversity dimension.
pub fn word_entropy(words: Spans<'_>) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    let mut counts: FxHashMap<&str, u32> = FxHashMap::default();
    for w in words {
        *counts.entry(w).or_insert(0) += 1;
    }
    let n = words.len() as f64;
    -counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::SampleContext;

    fn char_rep(text: &str, n: usize) -> f64 {
        char_rep_ratio(text, n, &mut Vec::new())
    }

    fn word_rep(text: &str, n: usize) -> f64 {
        let mut ctx = SampleContext::new();
        let (words, scratch) = ctx.words_and_scratch(text);
        word_rep_ratio(words, n, scratch)
    }

    #[test]
    fn char_rep_detects_spam() {
        let clean = "every word here differs from neighbours around";
        let spam = "buy now buy now buy now buy now buy now buy now";
        assert!(char_rep(spam, 5) > char_rep(clean, 5) + 0.3);
        assert_eq!(char_rep("", 5), 0.0);
        assert_eq!(char_rep("ab", 5), 0.0);
        assert_eq!(char_rep("ab", 0), 0.0);
        // "aaaa": 3 windows "aa", all the same n-gram.
        assert_eq!(char_rep("aaaa", 2), 1.0);
        // Non-ASCII windows are windows of characters, not bytes:
        // "数据数据数" has windows 数据, 据数, 数据, 据数 → all repeated.
        assert_eq!(char_rep("数据数据数", 2), 1.0);
        assert_eq!(char_rep("数据x数y", 2), 0.0);
    }

    #[test]
    fn word_rep_detects_repeated_ngrams() {
        assert_eq!(
            word_rep("the quick brown fox jumps over a lazy dog today", 2),
            0.0
        );
        assert!(word_rep("click here click here click here click here", 2) > 0.7);
        assert_eq!(word_rep("", 2), 0.0);
        assert_eq!(word_rep("one two", 0), 0.0);
        // Windows: (a b) (b a) (a b) (b c) → 2 of 4 repeated.
        assert_eq!(word_rep("a b a b c", 2), 0.5);
    }

    #[test]
    fn rep_ratio_is_exact_when_every_hash_collides() {
        // Identity is decided by `same`, never by the hash: with one hash
        // for every element all windows are candidates of each other and
        // the count must not move.
        let text = "a b c a b d";
        let mut ctx = SampleContext::new();
        let words = ctx.words(text);
        let same = |a: usize, b: usize| (0..2).all(|k| words.get(a + k) == words.get(b + k));
        let elems = (0..words.len()).map(|i| (i, 7u64));
        let windows = window_count(words.len(), 2);
        let mut table = vec![0; table_len(windows)];
        let got = repeated_share(elems, windows, 2, words.len(), &mut table, same);
        assert_eq!(got, 2.0 / 5.0); // (a b) twice among 5 windows
    }

    #[test]
    fn scratch_contents_do_not_matter() {
        let mut scratch = vec![u64::MAX; 100];
        assert_eq!(char_rep_ratio("abcabc", 3, &mut scratch), 0.5);
        assert_eq!(char_rep_ratio("abcabc", 3, &mut scratch), 0.5);
    }

    #[test]
    fn line_stats() {
        let mut ctx = SampleContext::new();
        let text = "ab\nabcd\n";
        assert!((avg_line_length(ctx.lines(text)) - 2.0).abs() < 1e-9);
        assert_eq!(max_line_length(ctx.lines(text)), 4.0);
        let none = Spans::new("", &[]);
        assert_eq!(avg_line_length(none), 0.0);
        assert_eq!(max_line_length(none), 0.0);
    }

    #[test]
    fn lexicon_ratio_case_insensitive() {
        let mut lex = FxHashSet::default();
        lex.insert("the".to_string());
        lex.insert("a".to_string());
        let mut ctx = SampleContext::new();
        let words = ctx.words("The cat saw a dog");
        assert!((lexicon_ratio(words, &lex) - 2.0 / 5.0).abs() < 1e-9);
        assert_eq!(lexicon_ratio(Spans::new("", &[]), &lex), 0.0);
    }

    #[test]
    fn paragraph_count_skips_blank_blocks() {
        assert_eq!(paragraph_count("a\n\nb\n\n\n\nc"), 3);
        assert_eq!(paragraph_count(""), 0);
        assert_eq!(paragraph_count("single paragraph"), 1);
    }

    #[test]
    fn entropy_higher_for_diverse_text() {
        let mut ctx = SampleContext::new();
        let diverse = "alpha beta gamma delta epsilon zeta eta theta";
        assert!(word_entropy(ctx.words(diverse)) > 2.9);
        ctx.invalidate();
        let repetitive = "spam spam spam spam spam spam spam spam";
        assert_eq!(word_entropy(ctx.words(repetitive)), 0.0);
        assert_eq!(word_entropy(Spans::new("", &[])), 0.0);
    }
}
