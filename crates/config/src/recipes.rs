//! Built-in data recipes — the "more than 20 high-quality and diverse data
//! recipes for pre-training, fine-tuning, English, Chinese, etc." of §5.1.
//!
//! Each function returns a ready-to-run [`Recipe`] whose OP names resolve
//! against `dj_ops::builtin_registry()`. The catalog is the "subtraction"
//! starting point: take one, remove/re-order OPs and tune parameters.

use crate::recipe::{OpSpec, Recipe};

/// Names of all built-in recipes, in catalog order.
pub fn catalog() -> Vec<&'static str> {
    vec![
        "pretrain-commoncrawl-refine",
        "pretrain-c4-refine",
        "pretrain-wikipedia-refine",
        "pretrain-books-refine",
        "pretrain-arxiv-refine",
        "pretrain-github-code-refine",
        "pretrain-stackexchange-refine",
        "pretrain-pile-merge",
        "pretrain-redpajama-merge",
        "pretrain-chinese-web-refine",
        "finetune-en-cft",
        "finetune-en-ift",
        "finetune-zh-cft",
        "finetune-multilingual",
        "finetune-dialog-multiround",
        "finetune-preference",
        "domain-financial",
        "domain-medical",
        "domain-legal",
        "domain-reading-assistant",
        "domain-character-dialog",
        "dedup-aggressive",
        "quality-strict",
        "minimal-clean",
    ]
}

/// Look a built-in recipe up by name.
pub fn by_name(name: &str) -> Option<Recipe> {
    let r = match name {
        "pretrain-commoncrawl-refine" => commoncrawl_refine(),
        "pretrain-c4-refine" => c4_refine(),
        "pretrain-wikipedia-refine" => wikipedia_refine(),
        "pretrain-books-refine" => books_refine(),
        "pretrain-arxiv-refine" => arxiv_refine(),
        "pretrain-github-code-refine" => github_code_refine(),
        "pretrain-stackexchange-refine" => stackexchange_refine(),
        "pretrain-pile-merge" => pile_merge(),
        "pretrain-redpajama-merge" => redpajama_merge(),
        "pretrain-chinese-web-refine" => chinese_web_refine(),
        "finetune-en-cft" => finetune_en_cft(),
        "finetune-en-ift" => finetune_en_ift(),
        "finetune-zh-cft" => finetune_zh_cft(),
        "finetune-multilingual" => finetune_multilingual(),
        "finetune-dialog-multiround" => finetune_dialog_multiround(),
        "finetune-preference" => finetune_preference(),
        "domain-financial" => domain_financial(),
        "domain-medical" => domain_medical(),
        "domain-legal" => domain_legal(),
        "domain-reading-assistant" => domain_reading_assistant(),
        "domain-character-dialog" => domain_character_dialog(),
        "dedup-aggressive" => dedup_aggressive(),
        "quality-strict" => quality_strict(),
        "minimal-clean" => minimal_clean(),
        _ => return None,
    };
    Some(r)
}

/// The flagship CommonCrawl refinement recipe (the Fig. 5 style pipeline).
pub fn commoncrawl_refine() -> Recipe {
    Recipe::new("pretrain-commoncrawl-refine")
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("punctuation_normalization_mapper"))
        .then(OpSpec::new("clean_html_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(OpSpec::new("clean_email_mapper"))
        .then(OpSpec::new("clean_ip_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("remove_long_words_mapper").with("max_len", 30i64))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 50.0)
                .with("max_len", 200000.0),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 10.0)
                .with("max_num", 100000.0),
        )
        .then(
            OpSpec::new("character_repetition_filter")
                .with("ngram", 10i64)
                .with("max_ratio", 0.3),
        )
        .then(
            OpSpec::new("word_repetition_filter")
                .with("rep_len", 10i64)
                .with("max_ratio", 0.3),
        )
        .then(
            OpSpec::new("special_characters_filter")
                .with("min_ratio", 0.0)
                .with("max_ratio", 0.25),
        )
        .then(OpSpec::new("stopwords_filter").with("min_ratio", 0.1))
        .then(OpSpec::new("flagged_words_filter").with("max_ratio", 0.01))
        .then(
            OpSpec::new("language_id_score_filter")
                .with("lang", "en")
                .with("min_score", 0.4),
        )
        .then(OpSpec::new("perplexity_filter").with("max_ppl", 8000.0))
        .then(OpSpec::new("document_deduplicator").with("lowercase", true))
        .then(OpSpec::new("document_minhash_deduplicator").with("jaccard_threshold", 0.7))
}

/// C4-style refinement: lighter cleaning, same dedup.
pub fn c4_refine() -> Recipe {
    let mut r = commoncrawl_refine();
    r.project_name = "pretrain-c4-refine".into();
    r.remove_op("clean_html_mapper");
    r.set_param("perplexity_filter", "max_ppl", 10000.0.into())
        .ok();
    r
}

pub fn wikipedia_refine() -> Recipe {
    Recipe::new("pretrain-wikipedia-refine")
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("remove_table_text_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 100.0)
                .with("max_len", 500000.0),
        )
        .then(OpSpec::new("special_characters_filter").with("max_ratio", 0.2))
        .then(OpSpec::new("document_deduplicator"))
}

pub fn books_refine() -> Recipe {
    Recipe::new("pretrain-books-refine")
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 200.0)
                .with("max_num", 2000000.0),
        )
        .then(
            OpSpec::new("average_word_length_filter")
                .with("min_len", 2.5)
                .with("max_len", 10.0),
        )
        .then(OpSpec::new("document_simhash_deduplicator").with("max_distance", 4i64))
}

pub fn arxiv_refine() -> Recipe {
    Recipe::new("pretrain-arxiv-refine")
        .then(OpSpec::new("remove_header_mapper"))
        .then(OpSpec::new("expand_macro_mapper"))
        .then(OpSpec::new("remove_comments_mapper"))
        .then(OpSpec::new("remove_bibliography_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 200.0)
                .with("max_len", 1000000.0),
        )
        .then(OpSpec::new("document_deduplicator"))
}

pub fn github_code_refine() -> Recipe {
    Recipe::new("pretrain-github-code-refine")
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("remove_long_words_mapper").with("max_len", 120i64))
        .then(OpSpec::new("star_count_filter").with("min_stars", 10i64))
        .then(
            OpSpec::new("maximum_line_length_filter")
                .with("min_len", 1.0)
                .with("max_len", 1000.0),
        )
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", 0.3)
                .with("max_ratio", 1.0),
        )
        .then(OpSpec::new("document_deduplicator"))
}

pub fn stackexchange_refine() -> Recipe {
    Recipe::new("pretrain-stackexchange-refine")
        .then(OpSpec::new("clean_html_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 10.0)
                .with("max_num", 100000.0),
        )
        .then(OpSpec::new("document_deduplicator").with("lowercase", true))
}

/// Merge-and-refine over Pile-style mixed sources.
pub fn pile_merge() -> Recipe {
    Recipe::new("pretrain-pile-merge")
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 50.0)
                .with("max_len", 1000000.0),
        )
        .then(OpSpec::new("flagged_words_filter").with("max_ratio", 0.02))
        .then(OpSpec::new("document_deduplicator").with("lowercase", true))
        .then(OpSpec::new("document_minhash_deduplicator").with("jaccard_threshold", 0.8))
}

/// Merge-and-refine over RedPajama-style mixed sources.
pub fn redpajama_merge() -> Recipe {
    let mut r = pile_merge();
    r.project_name = "pretrain-redpajama-merge".into();
    r.insert_op(2, OpSpec::new("clean_links_mapper"));
    r
}

pub fn chinese_web_refine() -> Recipe {
    Recipe::new("pretrain-chinese-web-refine")
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("punctuation_normalization_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("language_id_score_filter")
                .with("lang", "zh")
                .with("min_score", 0.4),
        )
        .then(
            OpSpec::new("character_repetition_filter")
                .with("ngram", 4i64)
                .with("max_ratio", 0.4),
        )
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 20.0)
                .with("max_len", 100000.0),
        )
        .then(OpSpec::new("document_deduplicator"))
}

pub fn finetune_en_cft() -> Recipe {
    Recipe::new("finetune-en-cft")
        .then(
            OpSpec::new("meta_tag_filter")
                .with("key", "language")
                .with("allowed", vec!["EN"]),
        )
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 20.0)
                .with("max_len", 20000.0),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 5.0)
                .with("max_num", 5000.0),
        )
        .then(OpSpec::new("action_verb_filter").with("min_pairs", 1i64))
        .then(OpSpec::new("flagged_words_filter").with("max_ratio", 0.0))
        .then(OpSpec::new("document_deduplicator").with("lowercase", true))
}

pub fn finetune_en_ift() -> Recipe {
    let mut r = finetune_en_cft();
    r.project_name = "finetune-en-ift".into();
    r.remove_op("action_verb_filter");
    r.insert_op(
        0,
        OpSpec::new("meta_tag_filter")
            .with("key", "usage")
            .with("allowed", vec!["IFT"]),
    );
    r
}

pub fn finetune_zh_cft() -> Recipe {
    Recipe::new("finetune-zh-cft")
        .then(
            OpSpec::new("meta_tag_filter")
                .with("key", "language")
                .with("allowed", vec!["ZH"]),
        )
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("punctuation_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 10.0)
                .with("max_len", 20000.0),
        )
        .then(
            OpSpec::new("character_repetition_filter")
                .with("ngram", 4i64)
                .with("max_ratio", 0.35),
        )
        .then(OpSpec::new("document_deduplicator"))
}

pub fn finetune_multilingual() -> Recipe {
    Recipe::new("finetune-multilingual")
        .then(
            OpSpec::new("meta_tag_filter")
                .with("key", "language")
                .with("allowed", vec!["EN", "ZH", "Multilingual"]),
        )
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 10.0)
                .with("max_len", 50000.0),
        )
        .then(OpSpec::new("document_deduplicator"))
}

pub fn finetune_dialog_multiround() -> Recipe {
    Recipe::new("finetune-dialog-multiround")
        .then(
            OpSpec::new("meta_tag_filter")
                .with("key", "usage")
                .with("allowed", vec!["CFT-MR"]),
        )
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 10.0)
                .with("max_num", 20000.0),
        )
        .then(OpSpec::new("document_deduplicator"))
}

pub fn finetune_preference() -> Recipe {
    Recipe::new("finetune-preference")
        .then(
            OpSpec::new("meta_tag_filter")
                .with("key", "usage")
                .with("allowed", vec!["CFT-P"]),
        )
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("flagged_words_filter").with("max_ratio", 0.0))
        .then(OpSpec::new("document_deduplicator"))
}

/// Financial-domain recipe: digits are expected (paper §7.3 — "accommodate
/// data that includes numerous digits and standardized terminology").
pub fn domain_financial() -> Recipe {
    Recipe::new("domain-financial")
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("spec_numerals_filter")
                .with("min_ratio", 0.0)
                .with("max_ratio", 0.6),
        )
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 30.0)
                .with("max_len", 100000.0),
        )
        .then(OpSpec::new("document_deduplicator"))
}

pub fn domain_medical() -> Recipe {
    let mut r = domain_financial();
    r.project_name = "domain-medical".into();
    r.set_param("spec_numerals_filter", "max_ratio", 0.4.into())
        .ok();
    r.insert_op(
        3,
        OpSpec::new("flagged_words_filter").with("max_ratio", 0.0),
    );
    r
}

pub fn domain_legal() -> Recipe {
    let mut r = domain_financial();
    r.project_name = "domain-legal".into();
    r.set_param("text_length_filter", "min_len", 100.0.into())
        .ok();
    r
}

/// Reading assistance: long coherent documents (paper §7.3 — "extended text
/// lengths and coherent structures").
pub fn domain_reading_assistant() -> Recipe {
    Recipe::new("domain-reading-assistant")
        .then(OpSpec::new("fix_unicode_mapper"))
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 500.0)
                .with("max_num", 2000000.0),
        )
        .then(
            OpSpec::new("paragraph_count_filter")
                .with("min_num", 3.0)
                .with("max_num", 100000.0),
        )
        .then(
            OpSpec::new("word_entropy_filter")
                .with("min_entropy", 3.0)
                .with("max_entropy", 1000.0),
        )
        .then(OpSpec::new("document_deduplicator"))
}

/// Character customization: dialogue-rich, diverse data (paper §7.3).
pub fn domain_character_dialog() -> Recipe {
    Recipe::new("domain-character-dialog")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 10.0)
                .with("max_num", 50000.0),
        )
        .then(
            OpSpec::new("word_entropy_filter")
                .with("min_entropy", 2.0)
                .with("max_entropy", 1000.0),
        )
        .then(OpSpec::new("flagged_words_filter").with("max_ratio", 0.0))
        .then(OpSpec::new("document_deduplicator").with("lowercase", true))
}

pub fn dedup_aggressive() -> Recipe {
    Recipe::new("dedup-aggressive")
        .then(
            OpSpec::new("document_deduplicator")
                .with("lowercase", true)
                .with("ignore_non_alnum", true),
        )
        .then(OpSpec::new("paragraph_deduplicator"))
        .then(OpSpec::new("document_minhash_deduplicator").with("jaccard_threshold", 0.6))
        .then(OpSpec::new("document_simhash_deduplicator").with("max_distance", 4i64))
}

pub fn quality_strict() -> Recipe {
    Recipe::new("quality-strict")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("quality_score_filter").with("min_score", 0.7))
        .then(OpSpec::new("perplexity_filter").with("max_ppl", 3000.0))
        .then(OpSpec::new("stopwords_filter").with("min_ratio", 0.15))
        .then(OpSpec::new("document_deduplicator"))
}

pub fn minimal_clean() -> Recipe {
    Recipe::new("minimal-clean")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 1.0)
                .with("max_len", 1e9),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_paper_scale() {
        assert!(catalog().len() > 20, "catalog size {}", catalog().len());
    }

    #[test]
    fn every_catalog_entry_resolves() {
        for name in catalog() {
            let r = by_name(name).unwrap_or_else(|| panic!("missing recipe {name}"));
            assert_eq!(r.project_name, name);
            assert!(!r.process.is_empty(), "{name} has an empty pipeline");
        }
        assert!(by_name("nonexistent").is_none());
    }

    /// The templates derived by editing another: each edit found its op
    /// (`set_param` on a missing op would leave the base value).
    #[test]
    fn edited_templates_carry_their_edits() {
        let param = |r: Recipe, op: &str, key: &str| r.op(op).unwrap().params[key].as_float();
        assert_eq!(
            param(c4_refine(), "perplexity_filter", "max_ppl"),
            Some(10000.0)
        );
        assert_eq!(
            param(domain_medical(), "spec_numerals_filter", "max_ratio"),
            Some(0.4)
        );
        assert_eq!(
            param(domain_legal(), "text_length_filter", "min_len"),
            Some(100.0)
        );
    }

    #[test]
    fn recipes_roundtrip_through_yaml() {
        for name in catalog() {
            let r = by_name(name).unwrap();
            let parsed = crate::recipe::Recipe::from_yaml(&r.to_yaml()).unwrap();
            assert_eq!(parsed, r, "roundtrip failed for {name}");
        }
    }
}
