//! Differential oracle for the built-in operators.
//!
//! Every registered mapper, text filter and fingerprinting deduplicator is
//! run next to the slow-but-obvious reference in `ops_reference` over
//! hand-picked edge cases, randomly assembled texts and the `dj-synth`
//! mixtures. Recorded stats must be bit-equal floats, mapper output
//! byte-equal text. A new built-in operator fails `every_builtin_is_covered`
//! until it has a reference (or a stated reason not to need one).

mod ops_reference;

use std::sync::OnceLock;

use proptest::prelude::*;

use data_juicer::core::{
    Dataset, Deduplicator, Fingerprints, Op, OpParams, Sample, SampleContext, Value,
};
use data_juicer::ops::{
    builtin_registry, models, DocumentDeduplicator, MinHashDeduplicator, ParagraphDeduplicator,
    SimHashDeduplicator,
};
use data_juicer::synth::{
    arxiv_corpus, book_corpus, chinese_corpus, code_corpus, dialog_corpus, web_corpus, wiki_corpus,
    WebNoise,
};
use data_juicer::text::stats as tstats;

/// Filters that decide from `meta` or from stats others recorded: they
/// never read text, so the hot-path rewrite did not touch them.
const NOT_TEXT_FILTERS: [&str; 4] = [
    "meta_tag_filter",
    "star_count_filter",
    "suffix_filter",
    "stats_range_filter",
];

/// Deduplicators whose fingerprint is `hash128` of the (canonical) text or
/// of its paragraphs — no derived view involved.
const CONTENT_HASH_DEDUPS: [&str; 2] = ["document_deduplicator", "paragraph_deduplicator"];

/// What a model-backed filter must record: the shared default model's
/// answer for the same text.
fn model_stat(name: &str, text: &str) -> Option<f64> {
    Some(match name {
        "language_id_score_filter" => models::default_langid().score_for(text, "en"),
        "perplexity_filter" => {
            let v = models::default_perplexity_model().perplexity(text);
            if v.is_finite() {
                v
            } else {
                1e9
            }
        }
        "token_num_filter" => data_juicer::text::tokenize::estimate_tokens(text, 4.2) as f64,
        "quality_score_filter" => models::default_quality_classifier().score(text),
        _ => return None,
    })
}

fn expected_stat(name: &str, text: &str) -> Option<f64> {
    ops_reference::filter_stat(name, text).or_else(|| model_stat(name, text))
}

fn expected_hash(name: &str, text: &str) -> Option<Value> {
    Some(match name {
        "document_minhash_deduplicator" => Value::List(
            ops_reference::minhash_signature(text, &ops_reference::minhash_seeds(128), 5)
                .into_iter()
                .map(|v| Value::Int(v as i64))
                .collect(),
        ),
        "document_simhash_deduplicator" => Value::Int(ops_reference::simhash(text) as i64),
        _ => return None,
    })
}

/// Every registered operator at its default parameters, built once.
fn builtin_ops() -> &'static [(String, Op)] {
    static OPS: OnceLock<Vec<(String, Op)>> = OnceLock::new();
    OPS.get_or_init(|| {
        let registry = builtin_registry();
        let build = |name: &str| registry.build(name, &OpParams::new()).expect("defaults");
        registry
            .names()
            .into_iter()
            .map(|name| (name.to_string(), build(name)))
            .collect()
    })
}

/// Run every built-in operator on `text` next to the reference.
fn check_all_ops(text: &str, ctx: &mut SampleContext) {
    for (name, op) in builtin_ops() {
        ctx.invalidate();
        match op {
            Op::Mapper(m) => {
                let want = ops_reference::mapped(name, text).expect("covered");
                let mut sample = Sample::from_text(text);
                let changed = m.process(&mut sample, ctx).expect("mapper runs");
                assert_eq!(sample.text(), want, "{name} on {text:?}");
                assert_eq!(changed, want != text, "{name} `changed` on {text:?}");
            }
            Op::Filter(f) => {
                let Some(want) = expected_stat(name, text) else {
                    continue;
                };
                let mut sample = Sample::from_text(text);
                f.compute_stats(&mut sample, ctx).expect("filter runs");
                let got = sample.stat(f.stats_key()).expect("stat recorded");
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name} on {text:?}: {got} vs reference {want}"
                );
            }
            Op::Deduplicator(d) => {
                let Some(want) = expected_hash(name, text) else {
                    continue;
                };
                let got = d
                    .compute_hash(&Sample::from_text(text), ctx)
                    .expect("hash runs");
                assert_eq!(got, want, "{name} on {text:?}");
            }
        }
    }
}

/// The n-gram kernels at every window length, not only the default.
fn check_ngram_kernels(text: &str, ctx: &mut SampleContext) {
    for n in 0..=7 {
        ctx.invalidate();
        let (words, scratch) = ctx.words_and_scratch(text);
        let got = tstats::word_rep_ratio(words, n, scratch);
        let want = ops_reference::word_rep_ratio(text, n);
        assert_eq!(got.to_bits(), want.to_bits(), "word n={n} on {text:?}");
        let got = tstats::char_rep_ratio(text, n, ctx.scratch());
        let want = ops_reference::char_rep_ratio(text, n);
        assert_eq!(got.to_bits(), want.to_bits(), "char n={n} on {text:?}");
    }
}

/// The shared views against the reference segmentations.
fn check_views(text: &str, ctx: &mut SampleContext) {
    ctx.invalidate();
    let words: Vec<&str> = ctx.words(text).iter().collect();
    assert_eq!(words, ops_reference::words(text), "words of {text:?}");
    let lines: Vec<&str> = ctx.lines(text).iter().collect();
    assert_eq!(lines, ops_reference::lines(text), "lines of {text:?}");
    let sentences: Vec<&str> = ctx.sentences(text).iter().collect();
    assert_eq!(
        sentences,
        ops_reference::sentences(text),
        "sentences of {text:?}"
    );
}

fn check(text: &str, ctx: &mut SampleContext) {
    check_views(text, ctx);
    check_all_ops(text, ctx);
    check_ngram_kernels(text, ctx);
}

#[test]
fn every_builtin_is_covered() {
    for (name, op) in builtin_ops() {
        let name = name.as_str();
        let covered = match op {
            Op::Mapper(_) => ops_reference::mapped(name, "").is_some(),
            Op::Filter(_) => expected_stat(name, "").is_some() || NOT_TEXT_FILTERS.contains(&name),
            Op::Deduplicator(_) => {
                expected_hash(name, "").is_some() || CONTENT_HASH_DEDUPS.contains(&name)
            }
        };
        assert!(covered, "`{name}` has no reference in tests/ops_reference");
    }
}

/// Inputs picked for the places the byte-level fast paths can go wrong.
const EDGE_CASES: &[&str] = &[
    "",
    " ",
    "\n",
    "a",
    "   leading and trailing   ",
    "tabs\tand  double  spaces \t mixed",
    "windows\r\nline\r\nends\r\n",
    "old mac\rline\rends\r",
    "cr \r\n lf \n\r mixed \r\r\n\n",
    "\n\n\nleading newlines\n\n\n\ntrailing\n\n",
    "nbsp\u{a0}and\u{3000}ideographic\u{a0}\u{a0}space",
    "©opyright â other Â£ two-byte leads ã‚ that are not blanks",
    "数据处理是一个重要的步骤。我们需要清洗数据！真的吗？是的",
    "mix 数据 end. 第二句。Third one!  第四句？ tail",
    "café naïve résumé Ünïcödé ÉCOLE İstanbul \u{212a}elvin ΣΊΣΥΦΟΣ ǅ",
    "don't stop_me now it's_a 'quoted' word_",
    "x。y，z！w？v；u：t",
    "####  $$$$ %%%% ░▒▓█▓▒░ ^^^^ &&&&",
    "The Cat SAT on THE mat, the cat sat on the mat. The cat!",
    "buy now buy now buy now buy now buy now buy now buy now buy now buy now buy now",
    "a b a b a b a b a b a b a b a b a b a b a b a b c",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    "数数数数数数数数数数数数数数数数数数数数数数",
    "see https://example.com/page and www.example.org or ftp://host/file now",
    "http:// https://x  www. wwwx hhttp://no fttp://no",
    "mail bob@example.com, <alice@host.org> not@anemail a@b. @x.y",
    "server 192.168.0.1 (10.0.0.255) v1.2.3 1.2.3.4.5 999.1.1.1x",
    "<p>Hello &amp; <b>world</b></p> a &lt; b &gt; c &quot;q&quot; &nbsp; &#39; &bogus; &toolongname; AT&T & x",
    "<unclosed tag and > stray &amp",
    "\\documentclass{article}\n\\usepackage{x}\n% comment\n\\begin{document}\nBody text.\n  % indented\n\\end{document}\n",
    "plain text\nwith % inline percent\n\n",
    "let x = 1; // count\n# python note\ncode(); /* block\nstill block */ more(); /* a */ b /* c\n*/ d // e\n\n   \nlast   ",
    "no comments here\njust code();\n",
    "a\na\nb\n\n\nb\nb\n \n \nend",
    "short loooooooooooooooooooooooooooong ok\nfine  double",
    "a◆b●c★d□■▪▫◇○e",
    "body text\n\\bibliography{refs}\n[1] citation",
    "intro\nReferences\n[1] x\nREFERENCES\n",
    "prose line\n| a | b | c |\n+--+--+--+\nmore prose -- one dash pair",
    "One. Two! Three? Four",
    "Hi. Hi. Hi. Hi. Bye. Hi.",
    "keep <redacted> this <redacted><redacted> text",
    "\\newcommand{\\model}{LLaMA}\nWe train \\model today\n  \\newcommand{\\x}{y}\n\\newcommand{broken",
    "the big method shows a good result for the fast analysis pipeline",
    "The BIG Method   shows a Good result for the FAST analysis pipeline today",
    "// Copyright 2023 Example Corp\n// SPDX-License-Identifier: MIT\nfn main() {}\n// normal comment\nALL RIGHTS RESERVED\n(C) 2021 x\nLicensed Under Apache",
    "COPYRİGHT line\nCOPYR\u{130}GHT\nall rıghts reserved\nLİCENSED UNDER",
    "Write a short story about dragons and explain the plan. Describe the table",
    "\u{1}control\u{0}chars\u{7f}and\u{b}vertical\u{c}feed\u{85}nel",
    "emoji 🎉🎉 and 𝒳 astral ² ½ Ⅻ ① numerics",
];

#[test]
fn edge_cases_match_reference() {
    let mut ctx = SampleContext::new();
    for text in EDGE_CASES {
        check(text, &mut ctx);
    }
}

#[test]
fn very_long_inputs_match_reference() {
    let mut ctx = SampleContext::new();
    let prose = book_corpus(3, 40)
        .iter()
        .map(|s| s.text().to_string())
        .collect::<Vec<_>>()
        .join("\n\n");
    assert!(prose.len() > 100_000);
    check(&prose, &mut ctx);
    // One enormous line, every 5-gram repeated many times.
    check(&"spam and eggs and ham 数据 ".repeat(5_000), &mut ctx);
}

/// Every instantiation of the MinHash lane loop this CPU can run — the
/// portable one and each `#[target_feature]` build of the same body — is
/// the reference's signature to the bit: hash counts with a vector tail
/// (1, 7, 13), a whole vector (8) and the default (128), one-token and
/// five-token shingles, and documents with no shingle at all, fewer tokens
/// than a shingle, non-ASCII tokens and 10 000 words. Working buffers are
/// handed over dirty, as a hash pass hands them from sample to sample.
#[test]
fn every_minhash_lane_instantiation_matches_reference() {
    use data_juicer::hash::{Lanes, MinHasher};
    let long = (0..10_000)
        .map(|i| format!("w{}", i * 7919 % 3001))
        .collect::<Vec<_>>()
        .join(" ");
    let documents = [
        "",
        " \n\t — ",
        "one",
        "only four tokens here",
        "exactly five tokens right here",
        "Ünïcødé ♥ 中文数据 🦀 смешанный текст και ελληνικά, naïve café",
        long.as_str(),
    ];
    let lanes = Lanes::available();
    assert_eq!(lanes[0].name(), "scalar");
    let names: Vec<_> = lanes.iter().map(|l| l.name()).collect();
    println!("minhash lane instantiations checked on this CPU: {names:?}");
    let mut ctx = SampleContext::new();
    let (mut joined, mut bases) = (b"stale".to_vec(), vec![7; 3]);
    for &lanes in &lanes {
        for k in [1, 7, 8, 13, 128] {
            let seeds = ops_reference::minhash_seeds(k);
            for shingle in [1, 5] {
                let hasher = MinHasher::with_lanes(k, shingle, lanes);
                for text in documents {
                    let want = ops_reference::minhash_signature(text, &seeds, shingle);
                    let mut got = vec![0; k];
                    ctx.invalidate();
                    hasher.signature_into(ctx.words(text), &mut joined, &mut bases, &mut got);
                    let case = format!("{} k={k} shingle={shingle}", lanes.name());
                    assert_eq!(got, want, "{case} on {:.40?}", text);
                    assert_eq!(hasher.signature(ctx.words(text)), want, "{case}");
                    if ops_reference::words(text).is_empty() {
                        assert!(got.iter().all(|&v| v == u64::MAX), "{case}: empty");
                    }
                }
            }
        }
    }
}

#[test]
fn synthetic_mixtures_match_reference() {
    let mut ctx = SampleContext::new();
    let noisy = WebNoise {
        spam_rate: 0.3,
        ..WebNoise::default()
    };
    let corpora = [
        web_corpus(11, 60, WebNoise::default()),
        web_corpus(12, 30, noisy),
        wiki_corpus(13, 25),
        book_corpus(14, 10),
        arxiv_corpus(15, 20),
        code_corpus(16, 25),
        dialog_corpus(17, 25),
        chinese_corpus(18, 30, 0.2),
    ];
    for corpus in &corpora {
        for sample in corpus.iter() {
            check(sample.text(), &mut ctx);
        }
    }
}

/// ≈ 1 500 documents shaped like the benchmark's `dup` corpus: 15 % exact
/// and 25 % near duplicates.
fn dup_corpus() -> Dataset {
    let noise = WebNoise {
        dup_rate: 0.15,
        near_dup_rate: 0.25,
        ..WebNoise::default()
    };
    web_corpus(6, 1_500, noise)
}

/// `dedup`'s fingerprints of every sample of `corpus`, as the barrier's
/// hash pass takes them.
fn fingerprints_of(dedup: &dyn Deduplicator, corpus: &Dataset) -> Fingerprints {
    let mut ctx = SampleContext::new();
    let mut fingerprints = Fingerprints::new();
    for s in corpus.iter() {
        ctx.invalidate();
        fingerprints
            .push_with(|out| dedup.fingerprint(s, &mut ctx, out))
            .unwrap();
    }
    fingerprints
}

/// `cluster` of `dedup` at every worker count equals `want`, which drops
/// at least a tenth of the corpus.
fn cluster_matches(dedup: &dyn Deduplicator, fingerprints: &Fingerprints, want: &[bool]) {
    let dropped = want.iter().filter(|&&keep| !keep).count();
    assert!(dropped > want.len() / 10, "only {dropped} duplicates");
    for workers in 1..=8 {
        let got = dedup.cluster(fingerprints, workers).unwrap();
        assert_eq!(got, want, "{} workers={workers}", dedup.name());
    }
}

/// MinHash dedup from text to keep mask with the reference at both ends —
/// signatures from `minhash_signature`, the mask from the all-pairs
/// `minhash_keep_mask` — on the `dup` corpus at the default 16 bands × 8
/// rows, for every worker count.
#[test]
fn minhash_clustering_of_a_dup_corpus_matches_reference() {
    let corpus = dup_corpus();
    let seeds = ops_reference::minhash_seeds(128);
    let signatures: Vec<u64> = corpus
        .iter()
        .flat_map(|s| ops_reference::minhash_signature(s.text(), &seeds, 5))
        .collect();
    let want = ops_reference::minhash_keep_mask(&signatures, 16, 8, 0.7);
    let dropped = want.iter().filter(|&&keep| !keep).count();
    assert!(dropped > corpus.len() / 4, "only {dropped} duplicates");
    let dedup = MinHashDeduplicator::default_config();
    cluster_matches(&dedup, &fingerprints_of(&dedup, &corpus), &want);
}

/// The other three deduplicators on the same corpus, each mask from its
/// all-pairs oracle: SimHash from the reference fingerprints, at a budget
/// inside the four-block pigeonhole guarantee and at two past it; exact
/// and paragraph from the operators' own content hashes, which have no
/// reference of their own.
#[test]
fn simhash_exact_and_paragraph_clustering_of_a_dup_corpus_match_reference() {
    let corpus = dup_corpus();
    let simhashes: Vec<u64> = corpus
        .iter()
        .map(|s| ops_reference::simhash(s.text()))
        .collect();
    for max_distance in [3, 8, 16] {
        let dedup = SimHashDeduplicator::new(max_distance).unwrap();
        let want = ops_reference::simhash_keep_mask(&simhashes, max_distance);
        cluster_matches(&dedup, &fingerprints_of(&dedup, &corpus), &want);
    }

    let exact = DocumentDeduplicator::new();
    let keys = fingerprints_of(&exact, &corpus);
    let want = ops_reference::exact_keep_mask(&keys.words().chunks_exact(2).collect::<Vec<_>>());
    cluster_matches(&exact, &keys, &want);

    let paragraph = ParagraphDeduplicator::new();
    let hashes = fingerprints_of(&paragraph, &corpus);
    let want = ops_reference::paragraph_keep_mask(&hashes.iter().collect::<Vec<_>>());
    cluster_matches(&paragraph, &hashes, &want);
}

/// The regression behind the exact n-gram count. The operator used to
/// count 5-gram windows by `hash64` (FxHash) of the joined window, and
/// FxHash collides on real text: `books[884]` of the seed-11 web corpus
/// `djbench` generates — 1 555 words, no repeated 5-gram — was recorded
/// with `word_rep_ratio = 2 / 1551`. It is the only such sample among the
/// corpus's 77 666.
#[test]
fn ngram_counts_do_not_depend_on_hash_collisions() {
    let books = book_corpus(11 * 1000 + 2, 1000);
    let text = books.samples()[884].text();
    let words = ops_reference::words(text);
    assert_eq!(words.len(), 1555);

    // What counting by window hash reports.
    let mut by_hash: std::collections::HashMap<u64, u32> = Default::default();
    for window in words.windows(5) {
        let joined: String = window.iter().flat_map(|w| [w.as_str(), "\u{1}"]).collect();
        *by_hash
            .entry(data_juicer::hash::hash64(joined.as_bytes()))
            .or_insert(0) += 1;
    }
    assert_eq!(by_hash.values().filter(|&&c| c > 1).count(), 1);

    // What is there, and what the operator records now.
    assert_eq!(ops_reference::word_rep_ratio(text, 5), 0.0);
    let mut ctx = SampleContext::new();
    let (words, scratch) = ctx.words_and_scratch(text);
    assert_eq!(tstats::word_rep_ratio(words, 5, scratch), 0.0);
}

/// The same collision class one level up: `remove_repeat_sentences_mapper`
/// used to count sentences by bare `hash64`, so two *different* sentences
/// whose hashes collide were counted as repeats of each other and the
/// later one was deleted. The pair below collides under FxHash (found by a
/// birthday search over 16-byte sentences); neither repeats more than the
/// default `max_repeats = 2`, so the text must come back unchanged.
#[test]
fn repeat_sentences_do_not_depend_on_hash_collisions() {
    let (a, b) = ("zjtpgdy uxxribj.", "bpyrdzp byhsyjo.");
    assert_ne!(a, b);
    assert_eq!(
        data_juicer::hash::hash64(a.as_bytes()),
        data_juicer::hash::hash64(b.as_bytes()),
        "the pair no longer collides: pick a new one"
    );
    let text = format!("{a} {b} {b} {a}");
    assert_eq!(
        ops_reference::mapped("remove_repeat_sentences_mapper", &text).as_deref(),
        Some(text.as_str())
    );
    // A real third repeat still goes, whichever sentence it is.
    let thrice = format!("{a} {b} {a} {b} {a} {b}");
    assert_eq!(
        ops_reference::mapped("remove_repeat_sentences_mapper", &thrice).as_deref(),
        Some(format!("{a} {b} {a} {b}").as_str())
    );
    let mut ctx = SampleContext::new();
    check_all_ops(&text, &mut ctx);
    check_all_ops(&thrice, &mut ctx);
}

/// Pieces random texts are assembled from: every character class the
/// byte-level paths branch on, and the tokens the mappers look for.
const PIECES: &[&str] = &[
    " ",
    " ",
    " ",
    "  ",
    "\n",
    "\n\n",
    "\r\n",
    "\r",
    "\t",
    "\u{a0}",
    "\u{3000}",
    ".",
    ". ",
    "! ",
    "? ",
    ",",
    "。",
    "！",
    "the",
    "the",
    "a",
    "of",
    "and",
    "cat",
    "Data",
    "JUICER",
    "model",
    "write",
    "story",
    "big",
    "method",
    "don't",
    "x_1",
    "42",
    "3.14",
    "数",
    "据",
    "处理",
    "é",
    "É",
    "ß",
    "İ",
    "Σ",
    "—",
    "“",
    "░",
    "🎉",
    "#",
    "//",
    "/*",
    "*/",
    "%",
    "|",
    "--",
    "<b>",
    "</b>",
    "&amp;",
    "&",
    ";",
    "@",
    "bob@example.com",
    "http://a.b/c",
    "www.x.org",
    "10.0.0.1",
    "Copyright",
    "(c) 2020",
    "<redacted>",
    "\\newcommand{\\m}{M}",
    "\\m",
    "\\begin{document}",
    "\nReferences\n",
    "◆",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn prop_random_texts_match_reference(
        picks in proptest::collection::vec(0usize..PIECES.len(), 0..80),
    ) {
        let text: String = picks.iter().map(|&i| PIECES[i]).collect();
        check(&text, &mut SampleContext::new());
    }

    /// Few distinct pieces, so windows repeat a lot and hash-table probing,
    /// candidate verification and the repeated flag all get exercised.
    #[test]
    fn prop_repetitive_texts_match_reference(
        picks in proptest::collection::vec(0usize..4, 0..200),
        n in 1usize..6,
    ) {
        let text: String = picks.iter().map(|&i| ["a ", "b ", "数", "ab "][i]).collect();
        let mut ctx = SampleContext::new();
        let (words, scratch) = ctx.words_and_scratch(&text);
        let got = tstats::word_rep_ratio(words, n, scratch);
        prop_assert_eq!(got.to_bits(), ops_reference::word_rep_ratio(&text, n).to_bits());
        let got = tstats::char_rep_ratio(&text, n, ctx.scratch());
        prop_assert_eq!(got.to_bits(), ops_reference::char_rep_ratio(&text, n).to_bits());
    }
}
