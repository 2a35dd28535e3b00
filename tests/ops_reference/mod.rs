//! The slow-but-obvious reference for the built-in operators.
//!
//! These are the straightforward implementations the operators had before
//! their hot path stopped copying text: owned `Vec<String>` words, one pass
//! of `chars()` per ratio, exact `HashMap` n-gram counts, mappers that build
//! a fresh `String` every time. Nothing here is shared with the product
//! code beyond the lexicons, the models and `dj_hash` itself, so the
//! differential test in `ops_differential.rs` compares two implementations,
//! not one implementation with itself.

use std::collections::HashMap;

use data_juicer::core::is_cjk;
use data_juicer::hash::{hash64, hash64_seeded, FxHashMap, FxHashSet};
use data_juicer::text::lexicon;

// ---- views ---------------------------------------------------------------

pub fn words(text: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if is_cjk(c) {
            if !cur.is_empty() {
                words.push(std::mem::take(&mut cur));
            }
            words.push(c.to_string());
        } else if c.is_alphanumeric() || c == '_' || c == '\'' {
            cur.push(c);
        } else if !cur.is_empty() {
            words.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

pub fn sentences(text: &str) -> Vec<String> {
    let mut sents = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        cur.push(c);
        if matches!(c, '.' | '!' | '?' | '。' | '！' | '？') {
            let t = cur.trim();
            if !t.is_empty() {
                sents.push(t.to_string());
            }
            cur.clear();
        }
    }
    let t = cur.trim();
    if !t.is_empty() {
        sents.push(t.to_string());
    }
    sents
}

pub fn lines(text: &str) -> Vec<String> {
    text.split('\n').map(str::to_string).collect()
}

// ---- statistics ----------------------------------------------------------

fn ratio(text: &str, pred: impl Fn(char) -> bool) -> f64 {
    let total = text.chars().count();
    if total == 0 {
        0.0
    } else {
        text.chars().filter(|c| pred(*c)).count() as f64 / total as f64
    }
}

fn is_special(c: char) -> bool {
    const PUNCTUATION: &str = ".,!?;:'\"-()。，！？；：";
    !(c.is_alphanumeric() || c.is_whitespace() || PUNCTUATION.contains(c))
}

fn uppercase_ratio(text: &str) -> f64 {
    let alpha = text.chars().filter(|c| c.is_alphabetic()).count();
    let upper = text
        .chars()
        .filter(|c| c.is_alphabetic() && c.is_uppercase())
        .count();
    if alpha == 0 {
        0.0
    } else {
        upper as f64 / alpha as f64
    }
}

/// Share of n-gram occurrences whose n-gram occurs more than once, counted
/// on the n-grams themselves.
fn repeated_share<T: std::hash::Hash + Eq>(windows: impl Iterator<Item = T>) -> f64 {
    let mut counts: HashMap<T, u64> = HashMap::new();
    for w in windows {
        *counts.entry(w).or_insert(0) += 1;
    }
    let total: u64 = counts.values().sum();
    let repeated: u64 = counts.values().filter(|&&c| c > 1).sum();
    repeated as f64 / total as f64
}

pub fn char_rep_ratio(text: &str, n: usize) -> f64 {
    let chars: Vec<char> = text.chars().collect();
    if chars.len() < n || n == 0 {
        return 0.0;
    }
    repeated_share(chars.windows(n))
}

pub fn word_rep_ratio(text: &str, n: usize) -> f64 {
    let words = words(text);
    if words.len() < n || n == 0 {
        return 0.0;
    }
    repeated_share(words.windows(n))
}

fn mean_chars(pieces: &[String]) -> f64 {
    if pieces.is_empty() {
        return 0.0;
    }
    pieces.iter().map(|p| p.chars().count()).sum::<usize>() as f64 / pieces.len() as f64
}

fn lexicon_ratio(text: &str, lexicon: &FxHashSet<String>) -> f64 {
    let words = words(text);
    if words.is_empty() {
        return 0.0;
    }
    let hits = words
        .iter()
        .filter(|w| lexicon.contains(&w.to_lowercase()))
        .count();
    hits as f64 / words.len() as f64
}

fn word_entropy(text: &str) -> f64 {
    let words = words(text);
    if words.is_empty() {
        return 0.0;
    }
    // Same map type and insertion order as the operator: the sum below is
    // taken in the map's iteration order, and floating-point addition is
    // not associative.
    let mut counts: FxHashMap<&str, u32> = FxHashMap::default();
    for w in &words {
        *counts.entry(w.as_str()).or_insert(0) += 1;
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

fn verb_noun_pairs(text: &str) -> f64 {
    let (verbs, nouns) = (lexicon::common_verbs(), lexicon::common_nouns());
    let lowered: Vec<String> = words(text).iter().map(|w| w.to_lowercase()).collect();
    let mut pairs = 0;
    for (i, w) in lowered.iter().enumerate() {
        if verbs.contains(w)
            && lowered
                .iter()
                .skip(i + 1)
                .take(4)
                .any(|o| nouns.contains(o))
        {
            pairs += 1;
        }
    }
    pairs as f64
}

/// The statistic the named text filter records, at the registry's default
/// parameters. `None`: not a filter this module knows.
pub fn filter_stat(name: &str, text: &str) -> Option<f64> {
    Some(match name {
        "alphanumeric_ratio_filter" => ratio(text, |c| c.is_alphanumeric()),
        "special_characters_filter" => ratio(text, is_special),
        "whitespace_ratio_filter" => ratio(text, char::is_whitespace),
        "uppercase_ratio_filter" => uppercase_ratio(text),
        "spec_numerals_filter" => ratio(text, |c| c.is_ascii_digit()),
        "text_length_filter" => text.chars().count() as f64,
        "word_num_filter" => words(text).len() as f64,
        "average_line_length_filter" => mean_chars(&lines(text)),
        "maximum_line_length_filter" => lines(text)
            .iter()
            .map(|l| l.chars().count())
            .max()
            .unwrap_or(0) as f64,
        "paragraph_count_filter" => {
            text.split("\n\n").filter(|p| !p.trim().is_empty()).count() as f64
        }
        "average_word_length_filter" => mean_chars(&words(text)),
        "word_entropy_filter" => word_entropy(text),
        "character_repetition_filter" => char_rep_ratio(text, 10),
        "word_repetition_filter" => word_rep_ratio(text, 10),
        "stopwords_filter" => lexicon_ratio(text, &lexicon::english_stopwords()),
        "flagged_words_filter" => lexicon_ratio(text, &lexicon::flagged_words()),
        "action_verb_filter" => verb_noun_pairs(text),
        _ => return None,
    })
}

// ---- mappers -------------------------------------------------------------

pub fn normalize_whitespace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut pending_space = false;
    let mut pending_newlines = 0usize;
    for c in text.replace("\r\n", "\n").replace('\r', "\n").chars() {
        match c {
            '\n' => {
                pending_space = false;
                pending_newlines += 1;
            }
            ' ' | '\t' | '\u{a0}' | '\u{3000}' => pending_space = true,
            c => {
                if pending_newlines > 0 {
                    out.push('\n');
                    if pending_newlines > 1 {
                        out.push('\n');
                    }
                    pending_newlines = 0;
                } else if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(c);
            }
        }
    }
    out
}

fn normalize_punctuation(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            '“' | '”' | '„' | '«' | '»' => '"',
            '‘' | '’' | '‚' | '`' => '\'',
            '—' | '–' | '―' => '-',
            '…' => '.',
            '，' => ',',
            '。' => '.',
            '！' => '!',
            '？' => '?',
            '：' => ':',
            '；' => ';',
            '（' => '(',
            '）' => ')',
            c => c,
        })
        .collect()
}

fn fix_mojibake(text: &str) -> String {
    const TABLE: &[(&str, &str)] = &[
        ("â€™", "'"),
        ("â€œ", "\""),
        ("â€\u{9d}", "\""),
        ("â€“", "-"),
        ("â€”", "-"),
        ("â€¦", "..."),
        ("Ã©", "é"),
        ("Ã¨", "è"),
        ("Ã¼", "ü"),
        ("Ã¶", "ö"),
        ("Ã¤", "ä"),
        ("Ã±", "ñ"),
        ("Â ", " "),
        ("\u{fffd}", ""),
    ];
    let mut out = text.to_string();
    for (bad, good) in TABLE {
        out = out.replace(bad, good);
    }
    out
}

fn remove_tokens(text: &str, pred: impl Fn(&str) -> bool) -> String {
    text.split('\n')
        .map(|line| {
            line.split(' ')
                .filter(|tok| !pred(tok))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn is_link(tok: &str) -> bool {
    ["http://", "https://", "ftp://", "www."]
        .iter()
        .any(|p| tok.starts_with(p))
}

fn is_email(tok: &str) -> bool {
    let t = tok.trim_matches(|c: char| !c.is_alphanumeric() && c != '@' && c != '.');
    match t.split_once('@') {
        Some((user, host)) => !user.is_empty() && host.contains('.') && !host.ends_with('.'),
        None => false,
    }
}

fn is_ip(tok: &str) -> bool {
    let t = tok.trim_matches(|c: char| !c.is_ascii_digit() && c != '.');
    let parts: Vec<&str> = t.split('.').collect();
    parts.len() == 4
        && parts
            .iter()
            .all(|p| !p.is_empty() && p.len() <= 3 && p.chars().all(|c| c.is_ascii_digit()))
}

fn strip_latex_header(text: &str) -> String {
    let body = match text.find("\\begin{document}") {
        Some(pos) => &text[pos + "\\begin{document}".len()..],
        None => text,
    };
    let mut out = String::new();
    for line in body.split('\n') {
        let trimmed = line.trim_start();
        if trimmed.starts_with('%')
            || trimmed.starts_with("\\documentclass")
            || trimmed.starts_with("\\usepackage")
            || trimmed.starts_with("\\end{document}")
        {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out.trim().to_string()
}

fn strip_html(text: &str) -> String {
    let mut out = String::new();
    let mut in_tag = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '<' => in_tag = true,
            '>' if in_tag => {
                in_tag = false;
                if !out.ends_with(' ') && !out.ends_with('\n') && !out.is_empty() {
                    out.push(' ');
                }
            }
            _ if in_tag => {}
            '&' => {
                let mut entity = String::from("&");
                let mut matched = false;
                for _ in 0..6 {
                    match chars.peek() {
                        Some(&e) if e.is_ascii_alphanumeric() || e == '#' => {
                            entity.push(e);
                            chars.next();
                        }
                        Some(&';') => {
                            chars.next();
                            matched = true;
                            break;
                        }
                        _ => break,
                    }
                }
                match (matched, entity.as_str()) {
                    (true, "&amp") => out.push('&'),
                    (true, "&lt") => out.push('<'),
                    (true, "&gt") => out.push('>'),
                    (true, "&quot") => out.push('"'),
                    (true, "&nbsp") => out.push(' '),
                    (true, "&#39") => out.push('\''),
                    _ => out.push_str(&entity),
                }
            }
            c => out.push(c),
        }
    }
    normalize_whitespace(&out)
}

fn strip_code_comments(text: &str) -> String {
    let mut out = String::new();
    let mut in_block = false;
    for line in text.split('\n') {
        let mut kept = String::new();
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if in_block {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    in_block = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                in_block = true;
                i += 2;
                continue;
            }
            if (chars[i] == '/' && chars.get(i + 1) == Some(&'/')) || chars[i] == '#' {
                break;
            }
            kept.push(chars[i]);
            i += 1;
        }
        if !kept.trim().is_empty() {
            out.push_str(kept.trim_end());
            out.push('\n');
        }
    }
    out.trim_end().to_string()
}

fn dedup_consecutive_lines(text: &str) -> String {
    let mut kept: Vec<&str> = Vec::new();
    let mut prev: Option<&str> = None;
    for line in text.split('\n') {
        if prev == Some(line) && !line.trim().is_empty() {
            continue;
        }
        kept.push(line);
        prev = Some(line);
    }
    kept.join("\n")
}

fn remove_bibliography(t: &str) -> String {
    const MARKERS: &[&str] = &[
        "\\bibliography",
        "\\begin{thebibliography}",
        "\nReferences\n",
        "\nREFERENCES\n",
    ];
    match MARKERS.iter().filter_map(|m| t.find(m)).min() {
        Some(pos) => t[..pos].trim_end().to_string(),
        None => t.to_string(),
    }
}

fn remove_repeat_sentences(text: &str, max_repeats: usize) -> String {
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut kept = Vec::new();
    for s in sentences(text) {
        let count = seen.entry(s.clone()).or_insert(0);
        *count += 1;
        if *count <= max_repeats {
            kept.push(s);
        }
    }
    kept.join(" ")
}

fn expand_macros(t: &str) -> String {
    let mut macros: Vec<(String, String)> = Vec::new();
    let mut kept_lines = Vec::new();
    for line in t.split('\n') {
        if let Some(rest) = line.trim_start().strip_prefix("\\newcommand{") {
            if let Some((name, tail)) = rest.split_once('}') {
                if let Some(body) = tail.strip_prefix('{').and_then(|b| b.strip_suffix('}')) {
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
    out
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
    let lower = word.to_lowercase();
    THESAURUS.iter().find(|(k, _)| *k == lower).map(|(_, v)| *v)
}

/// `text_augment_mapper` at the registry defaults (10 % synonyms, no
/// dropout, seed 42, at least six words).
fn augment(t: &str) -> String {
    let (syn, drop, min_words, seed) = (0.1, 0.0, 6, 42u64);
    let mut state = seed ^ hash64(t.as_bytes());
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let words: Vec<&str> = t.split(' ').collect();
    if words.iter().filter(|w| !w.is_empty()).count() < min_words {
        return t.to_string();
    }
    let mut out: Vec<String> = Vec::new();
    for w in words {
        let r = next();
        if r < drop && !w.is_empty() {
            continue;
        }
        if r < drop + syn {
            if let Some(s) = synonym(w) {
                out.push(s.to_string());
                continue;
            }
        }
        out.push(w.to_string());
    }
    out.join(" ")
}

fn is_copyright_line(line: &str) -> bool {
    let l = line.to_lowercase();
    [
        "copyright",
        "all rights reserved",
        "(c) 19",
        "(c) 20",
        "licensed under",
        "spdx-license-identifier",
    ]
    .iter()
    .any(|m| l.contains(m))
}

fn keep_lines(t: &str, keep: impl Fn(&str) -> bool) -> String {
    t.split('\n')
        .filter(|l| keep(l))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The text the named mapper leaves, at the registry's default parameters.
/// `None`: not a mapper this module knows.
pub fn mapped(name: &str, t: &str) -> Option<String> {
    Some(match name {
        "whitespace_normalization_mapper" => normalize_whitespace(t),
        "punctuation_normalization_mapper" => normalize_punctuation(t),
        "fix_unicode_mapper" => fix_mojibake(t),
        "clean_links_mapper" => remove_tokens(t, is_link),
        "clean_email_mapper" => remove_tokens(t, is_email),
        "clean_ip_mapper" => remove_tokens(t, is_ip),
        "clean_html_mapper" => strip_html(t),
        "remove_header_mapper" => strip_latex_header(t),
        "remove_comments_mapper" => strip_code_comments(t),
        "lowercase_mapper" => t.to_lowercase(),
        "remove_repeat_lines_mapper" => dedup_consecutive_lines(t),
        "remove_long_words_mapper" => t
            .split('\n')
            .map(|line| {
                line.split(' ')
                    .filter(|w| w.chars().count() <= 25)
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n"),
        "remove_specific_chars_mapper" => t.chars().filter(|c| !"◆●★□■▪▫◇○".contains(*c)).collect(),
        "remove_bibliography_mapper" => remove_bibliography(t),
        "remove_table_text_mapper" => keep_lines(t, |line| {
            line.matches('|').count() < 3 && line.matches("--").count() < 3
        }),
        "sentence_split_mapper" => sentences(t).join("\n"),
        "text_truncate_mapper" => t.chars().take(100_000).collect(),
        "replace_content_mapper" => t.replace("<redacted>", ""),
        "remove_repeat_sentences_mapper" => remove_repeat_sentences(t, 2),
        "expand_macro_mapper" => expand_macros(t),
        "text_augment_mapper" => augment(t),
        "clean_copyright_mapper" => keep_lines(t, |line| !is_copyright_line(line)),
        _ => return None,
    })
}

// ---- fingerprints --------------------------------------------------------

/// MinHash signature over word shingles, each shingle hashed as the words
/// joined by `\u{1}`.
pub fn minhash_signature(text: &str, seeds: &[u64], shingle_size: usize) -> Vec<u64> {
    let words = words(text);
    let mut sig = vec![u64::MAX; seeds.len()];
    if words.is_empty() {
        return sig;
    }
    for window in words.windows(shingle_size.min(words.len())) {
        let base = hash64_seeded(window.join("\u{1}").as_bytes(), 0);
        for (slot, &seed) in sig.iter_mut().zip(seeds) {
            let mut z = base ^ seed;
            z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
            z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            *slot = (*slot).min(z ^ (z >> 33));
        }
    }
    sig
}

/// The seed family `MinHasher::new(k, _)` derives (splitmix64).
pub fn minhash_seeds(k: usize) -> Vec<u64> {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    (0..k)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// SimHash over word frequencies.
pub fn simhash(text: &str) -> u64 {
    let mut freq: HashMap<String, i64> = HashMap::new();
    for w in words(text) {
        *freq.entry(w).or_insert(0) += 1;
    }
    if freq.is_empty() {
        return 0;
    }
    let mut out = 0u64;
    for bit in 0..64 {
        let vote: i64 = freq
            .iter()
            .map(|(w, n)| {
                if (hash64(w.as_bytes()) >> bit) & 1 == 1 {
                    *n
                } else {
                    -*n
                }
            })
            .sum();
        if vote > 0 {
            out |= 1 << bit;
        }
    }
    out
}

// ---- clustering ----------------------------------------------------------

/// The MinHash keep mask by definition, over `signatures` laid back to
/// back, `bands * rows` words each. Every pair `i < j` is looked at: it is
/// a candidate when some band's `rows` words are equal (compared as
/// slices, no key hash), and a candidate sharing at least `threshold` of
/// its words joins the two components. A sample survives when it is the
/// smallest member of its component.
pub fn minhash_keep_mask(
    signatures: &[u64],
    bands: usize,
    rows: usize,
    threshold: f64,
) -> Vec<bool> {
    let width = bands * rows;
    let sigs: Vec<&[u64]> = signatures.chunks_exact(width).collect();
    // Every sample is labelled with the smallest member of its component.
    let mut label: Vec<usize> = (0..sigs.len()).collect();
    for j in 0..sigs.len() {
        for i in 0..j {
            let (a, b) = (sigs[i], sigs[j]);
            if label[i] == label[j] {
                continue; // already one component: nothing would change
            }
            let band = |k: usize| k * rows..(k + 1) * rows;
            if !(0..bands).any(|k| a[band(k)] == b[band(k)]) {
                continue;
            }
            let shared = a.iter().zip(b).filter(|(x, y)| x == y).count();
            if shared as f64 / width as f64 >= threshold {
                let (keep, gone) = (label[i].min(label[j]), label[i].max(label[j]));
                for l in label.iter_mut().filter(|l| **l == gone) {
                    *l = keep;
                }
            }
        }
    }
    label.iter().enumerate().map(|(i, &l)| l == i).collect()
}
