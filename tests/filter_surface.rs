//! The built-in filters' surface, pinned: what each registered filter
//! records and declares, which parameters it reads, and the plans the
//! shipped recipes make of them. A refactor of how filters are built must
//! leave every line here as it is.

use std::path::Path;

use data_juicer::config::{recipes, OpSpec, Recipe};
use data_juicer::core::{ContextNeeds, FieldSet, Op, OpParams, Value};
use data_juicer::exec::{plan_fused, plan_unfused, Plan};
use data_juicer::ops::builtin_registry;

/// One line per registered filter: stats key, cost, context needs,
/// `commutable`, fields read and written, and whether a `field:` parameter
/// is accepted.
const FILTERS: &str = "\
action_verb_filter stats=verb_noun_pairs cost=Moderate needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
alphanumeric_ratio_filter stats=alnum_ratio cost=Cheap needs=[chars] commutable=true read=[text,stats] written=[stats] field=accepted
average_line_length_filter stats=avg_line_length cost=Cheap needs=[lines] commutable=true read=[text,stats] written=[stats] field=accepted
average_word_length_filter stats=avg_word_length cost=Cheap needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
character_repetition_filter stats=char_rep_ratio cost=Moderate needs=[chars] commutable=true read=[text,stats] written=[stats] field=accepted
flagged_words_filter stats=flagged_word_ratio cost=Cheap needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
language_id_score_filter stats=lang_score cost=Expensive needs=[] commutable=true read=[text,stats] written=[stats] field=accepted
maximum_line_length_filter stats=max_line_length cost=Cheap needs=[lines] commutable=true read=[text,stats] written=[stats] field=accepted
meta_tag_filter stats=meta_tag_match cost=Cheap needs=[] commutable=true read=[meta,stats] written=[stats] field=refused
paragraph_count_filter stats=paragraph_count cost=Cheap needs=[] commutable=true read=[text,stats] written=[stats] field=accepted
perplexity_filter stats=perplexity cost=Expensive needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
quality_score_filter stats=quality_score cost=Expensive needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
spec_numerals_filter stats=digit_ratio cost=Cheap needs=[chars] commutable=true read=[text,stats] written=[stats] field=accepted
special_characters_filter stats=special_char_ratio cost=Cheap needs=[chars] commutable=true read=[text,stats] written=[stats] field=accepted
star_count_filter stats=star_count cost=Cheap needs=[] commutable=true read=[meta,stats] written=[stats] field=refused
stats_range_filter stats=stats_range cost=Cheap needs=[] commutable=false read=[stats] written=[] field=refused
stopwords_filter stats=stopword_ratio cost=Cheap needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
suffix_filter stats=suffix_match cost=Cheap needs=[] commutable=true read=[meta,stats] written=[stats] field=refused
text_length_filter stats=text_len cost=Cheap needs=[chars] commutable=true read=[text,stats] written=[stats] field=accepted
token_num_filter stats=num_tokens cost=Cheap needs=[] commutable=true read=[text,stats] written=[stats] field=accepted
uppercase_ratio_filter stats=uppercase_ratio cost=Cheap needs=[chars] commutable=true read=[text,stats] written=[stats] field=accepted
whitespace_ratio_filter stats=whitespace_ratio cost=Cheap needs=[chars] commutable=true read=[text,stats] written=[stats] field=accepted
word_entropy_filter stats=word_entropy cost=Moderate needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
word_num_filter stats=word_count cost=Cheap needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
word_repetition_filter stats=word_rep_ratio cost=Moderate needs=[words] commutable=true read=[text,stats] written=[stats] field=accepted
";

fn needs(n: ContextNeeds) -> String {
    let names = [
        (ContextNeeds::WORDS, "words"),
        (ContextNeeds::LINES, "lines"),
        (ContextNeeds::SENTENCES, "sentences"),
        (ContextNeeds::CHARS, "chars"),
    ];
    let set: Vec<&str> = names
        .iter()
        .filter(|(bit, _)| n.intersects(*bit))
        .map(|(_, name)| *name)
        .collect();
    format!("[{}]", set.join(","))
}

fn fields(f: FieldSet) -> String {
    match f {
        FieldSet::All => "All".to_string(),
        FieldSet::Fields(fs) => format!("[{}]", fs.join(",")),
    }
}

fn filter_lines() -> String {
    let registry = builtin_registry();
    let with_field = OpParams::from([("field".to_string(), Value::from("other"))]);
    let mut out = String::new();
    for name in registry.names() {
        let Op::Filter(f) = registry.build(name, &OpParams::new()).unwrap() else {
            continue;
        };
        assert_eq!(f.name(), name);
        assert_eq!(
            registry.filter_measuring(f.stats_key()),
            Some(name),
            "{name} is not the filter measuring `{}`",
            f.stats_key()
        );
        let field = match registry.build(name, &with_field) {
            Ok(_) => "accepted",
            Err(_) => "refused",
        };
        out += &format!(
            "{name} stats={} cost={:?} needs={} commutable={} read={} written={} field={field}\n",
            f.stats_key(),
            f.cost(),
            needs(f.context_needs()),
            f.commutable(),
            fields(f.fields_read()),
            fields(f.fields_written()),
        );
    }
    out
}

#[test]
fn every_builtin_filter_keeps_its_surface() {
    let got = filter_lines();
    for (g, e) in got.lines().zip(FILTERS.lines()) {
        assert_eq!(g, e);
    }
    assert_eq!(got, FILTERS);
}

/// Every shipped recipe: its name, then its fused plan's step names, then
/// its unfused plan's step names (`|` between steps).
const PLANS: &str = "\
djbench/recipes/dup.yaml
  fused: whitespace_normalization_mapper | document_minhash_deduplicator
  unfused: whitespace_normalization_mapper | document_minhash_deduplicator
djbench/recipes/meta.yaml
  fused: whitespace_normalization_mapper | text_length_filter | document_deduplicator | clean_links_mapper | word_num_filter | special_characters_filter | document_simhash_deduplicator
  unfused: whitespace_normalization_mapper | text_length_filter | document_deduplicator | clean_links_mapper | word_num_filter | special_characters_filter | document_simhash_deduplicator
djbench/recipes/web.yaml
  fused: whitespace_normalization_mapper | clean_links_mapper | fused(word_num_filter+word_repetition_filter) | fused(text_length_filter+alphanumeric_ratio_filter+special_characters_filter) | document_deduplicator
  unfused: whitespace_normalization_mapper | clean_links_mapper | text_length_filter | word_num_filter | alphanumeric_ratio_filter | special_characters_filter | word_repetition_filter | document_deduplicator
fixtures/misordered.yaml
  fused: fused(word_entropy_filter+average_word_length_filter) | fused(alphanumeric_ratio_filter+special_characters_filter)
  unfused: word_entropy_filter | average_word_length_filter | alphanumeric_ratio_filter | special_characters_filter
pretrain-commoncrawl-refine
  fused: fix_unicode_mapper | punctuation_normalization_mapper | clean_html_mapper | clean_links_mapper | clean_email_mapper | clean_ip_mapper | whitespace_normalization_mapper | remove_long_words_mapper | language_id_score_filter | fused(text_length_filter+character_repetition_filter+special_characters_filter) | fused(word_num_filter+word_repetition_filter+stopwords_filter+flagged_words_filter+perplexity_filter) | document_deduplicator | document_minhash_deduplicator
  unfused: fix_unicode_mapper | punctuation_normalization_mapper | clean_html_mapper | clean_links_mapper | clean_email_mapper | clean_ip_mapper | whitespace_normalization_mapper | remove_long_words_mapper | text_length_filter | word_num_filter | character_repetition_filter | word_repetition_filter | special_characters_filter | stopwords_filter | flagged_words_filter | language_id_score_filter | perplexity_filter | document_deduplicator | document_minhash_deduplicator
pretrain-c4-refine
  fused: fix_unicode_mapper | punctuation_normalization_mapper | clean_links_mapper | clean_email_mapper | clean_ip_mapper | whitespace_normalization_mapper | remove_long_words_mapper | language_id_score_filter | fused(text_length_filter+character_repetition_filter+special_characters_filter) | fused(word_num_filter+word_repetition_filter+stopwords_filter+flagged_words_filter+perplexity_filter) | document_deduplicator | document_minhash_deduplicator
  unfused: fix_unicode_mapper | punctuation_normalization_mapper | clean_links_mapper | clean_email_mapper | clean_ip_mapper | whitespace_normalization_mapper | remove_long_words_mapper | text_length_filter | word_num_filter | character_repetition_filter | word_repetition_filter | special_characters_filter | stopwords_filter | flagged_words_filter | language_id_score_filter | perplexity_filter | document_deduplicator | document_minhash_deduplicator
pretrain-wikipedia-refine
  fused: fix_unicode_mapper | whitespace_normalization_mapper | remove_table_text_mapper | fused(text_length_filter+special_characters_filter) | document_deduplicator
  unfused: fix_unicode_mapper | whitespace_normalization_mapper | remove_table_text_mapper | text_length_filter | special_characters_filter | document_deduplicator
pretrain-books-refine
  fused: fix_unicode_mapper | whitespace_normalization_mapper | fused(word_num_filter+average_word_length_filter) | document_simhash_deduplicator
  unfused: fix_unicode_mapper | whitespace_normalization_mapper | word_num_filter | average_word_length_filter | document_simhash_deduplicator
pretrain-arxiv-refine
  fused: remove_header_mapper | expand_macro_mapper | remove_comments_mapper | remove_bibliography_mapper | whitespace_normalization_mapper | text_length_filter | document_deduplicator
  unfused: remove_header_mapper | expand_macro_mapper | remove_comments_mapper | remove_bibliography_mapper | whitespace_normalization_mapper | text_length_filter | document_deduplicator
pretrain-github-code-refine
  fused: fix_unicode_mapper | remove_long_words_mapper | star_count_filter | maximum_line_length_filter | alphanumeric_ratio_filter | document_deduplicator
  unfused: fix_unicode_mapper | remove_long_words_mapper | star_count_filter | maximum_line_length_filter | alphanumeric_ratio_filter | document_deduplicator
pretrain-stackexchange-refine
  fused: clean_html_mapper | clean_links_mapper | whitespace_normalization_mapper | word_num_filter | document_deduplicator
  unfused: clean_html_mapper | clean_links_mapper | whitespace_normalization_mapper | word_num_filter | document_deduplicator
pretrain-pile-merge
  fused: fix_unicode_mapper | whitespace_normalization_mapper | text_length_filter | flagged_words_filter | document_deduplicator | document_minhash_deduplicator
  unfused: fix_unicode_mapper | whitespace_normalization_mapper | text_length_filter | flagged_words_filter | document_deduplicator | document_minhash_deduplicator
pretrain-redpajama-merge
  fused: fix_unicode_mapper | whitespace_normalization_mapper | clean_links_mapper | text_length_filter | flagged_words_filter | document_deduplicator | document_minhash_deduplicator
  unfused: fix_unicode_mapper | whitespace_normalization_mapper | clean_links_mapper | text_length_filter | flagged_words_filter | document_deduplicator | document_minhash_deduplicator
pretrain-chinese-web-refine
  fused: fix_unicode_mapper | punctuation_normalization_mapper | whitespace_normalization_mapper | language_id_score_filter | fused(character_repetition_filter+text_length_filter) | document_deduplicator
  unfused: fix_unicode_mapper | punctuation_normalization_mapper | whitespace_normalization_mapper | language_id_score_filter | character_repetition_filter | text_length_filter | document_deduplicator
finetune-en-cft
  fused: meta_tag_filter | fix_unicode_mapper | whitespace_normalization_mapper | text_length_filter | fused(word_num_filter+action_verb_filter+flagged_words_filter) | document_deduplicator
  unfused: meta_tag_filter | fix_unicode_mapper | whitespace_normalization_mapper | text_length_filter | word_num_filter | action_verb_filter | flagged_words_filter | document_deduplicator
finetune-en-ift
  fused: meta_tag_filter | meta_tag_filter | fix_unicode_mapper | whitespace_normalization_mapper | text_length_filter | fused(word_num_filter+flagged_words_filter) | document_deduplicator
  unfused: meta_tag_filter | meta_tag_filter | fix_unicode_mapper | whitespace_normalization_mapper | text_length_filter | word_num_filter | flagged_words_filter | document_deduplicator
finetune-zh-cft
  fused: meta_tag_filter | fix_unicode_mapper | punctuation_normalization_mapper | fused(text_length_filter+character_repetition_filter) | document_deduplicator
  unfused: meta_tag_filter | fix_unicode_mapper | punctuation_normalization_mapper | text_length_filter | character_repetition_filter | document_deduplicator
finetune-multilingual
  fused: meta_tag_filter | fix_unicode_mapper | whitespace_normalization_mapper | text_length_filter | document_deduplicator
  unfused: meta_tag_filter | fix_unicode_mapper | whitespace_normalization_mapper | text_length_filter | document_deduplicator
finetune-dialog-multiround
  fused: meta_tag_filter | whitespace_normalization_mapper | word_num_filter | document_deduplicator
  unfused: meta_tag_filter | whitespace_normalization_mapper | word_num_filter | document_deduplicator
finetune-preference
  fused: meta_tag_filter | whitespace_normalization_mapper | flagged_words_filter | document_deduplicator
  unfused: meta_tag_filter | whitespace_normalization_mapper | flagged_words_filter | document_deduplicator
domain-financial
  fused: fix_unicode_mapper | whitespace_normalization_mapper | fused(spec_numerals_filter+text_length_filter) | document_deduplicator
  unfused: fix_unicode_mapper | whitespace_normalization_mapper | spec_numerals_filter | text_length_filter | document_deduplicator
domain-medical
  fused: fix_unicode_mapper | whitespace_normalization_mapper | flagged_words_filter | fused(spec_numerals_filter+text_length_filter) | document_deduplicator
  unfused: fix_unicode_mapper | whitespace_normalization_mapper | spec_numerals_filter | flagged_words_filter | text_length_filter | document_deduplicator
domain-legal
  fused: fix_unicode_mapper | whitespace_normalization_mapper | fused(spec_numerals_filter+text_length_filter) | document_deduplicator
  unfused: fix_unicode_mapper | whitespace_normalization_mapper | spec_numerals_filter | text_length_filter | document_deduplicator
domain-reading-assistant
  fused: fix_unicode_mapper | whitespace_normalization_mapper | paragraph_count_filter | fused(word_num_filter+word_entropy_filter) | document_deduplicator
  unfused: fix_unicode_mapper | whitespace_normalization_mapper | word_num_filter | paragraph_count_filter | word_entropy_filter | document_deduplicator
domain-character-dialog
  fused: whitespace_normalization_mapper | fused(word_num_filter+word_entropy_filter+flagged_words_filter) | document_deduplicator
  unfused: whitespace_normalization_mapper | word_num_filter | word_entropy_filter | flagged_words_filter | document_deduplicator
dedup-aggressive
  fused: document_deduplicator | paragraph_deduplicator | document_minhash_deduplicator | document_simhash_deduplicator
  unfused: document_deduplicator | paragraph_deduplicator | document_minhash_deduplicator | document_simhash_deduplicator
quality-strict
  fused: whitespace_normalization_mapper | fused(quality_score_filter+perplexity_filter+stopwords_filter) | document_deduplicator
  unfused: whitespace_normalization_mapper | quality_score_filter | perplexity_filter | stopwords_filter | document_deduplicator
minimal-clean
  fused: whitespace_normalization_mapper | text_length_filter
  unfused: whitespace_normalization_mapper | text_length_filter
";

fn steps(plan: Plan) -> String {
    plan.steps
        .iter()
        .map(|s| s.name())
        .collect::<Vec<_>>()
        .join(" | ")
}

fn plan_lines() -> String {
    let registry = builtin_registry();
    let mut shipped = Vec::new();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in ["djbench/recipes", "fixtures"] {
        let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "yaml"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path).unwrap();
            let name = format!("{dir}/{}", path.file_name().unwrap().to_string_lossy());
            shipped.push((name, Recipe::from_yaml(&text).unwrap()));
        }
    }
    for name in recipes::catalog() {
        shipped.push((name.to_string(), recipes::by_name(name).unwrap()));
    }
    let mut out = String::new();
    for (name, recipe) in shipped {
        let ops = recipe.build_ops(&registry).unwrap();
        out += &format!("{name}\n  fused: {}\n", steps(plan_fused(&ops)));
        out += &format!("  unfused: {}\n", steps(plan_unfused(&ops)));
    }
    out
}

#[test]
fn every_shipped_recipe_keeps_its_plans() {
    let got = plan_lines();
    for (g, e) in got.lines().zip(PLANS.lines()) {
        assert_eq!(g, e);
    }
    assert_eq!(got, PLANS);
}

/// `stats_range_filter` reads the recorded stats and nothing else, so a
/// plan holding it still leaves the other columns inert.
#[test]
fn stats_range_filter_touches_only_stats() {
    let ops = Recipe::new("stats-range")
        .then(OpSpec::new("text_length_filter").with("min_len", 1.0))
        .then(
            OpSpec::new("stats_range_filter")
                .with("key", "text_len")
                .with("max", 100.0),
        )
        .build_ops(&builtin_registry())
        .unwrap();
    let touched = plan_fused(&ops).columns_touched();
    assert!(
        touched.as_ref().is_some_and(|cols| cols.contains("stats")),
        "{touched:?}"
    );
}
