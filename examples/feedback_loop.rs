//! The Fig. 5 showcase: the six-step "Data-in-the-LLMdev-Loop".
//!
//! 1. analyze the original dataset (probe + verb-noun diversity pie);
//! 2. refine the recipe parameters based on the probe;
//! 3. process the data with the refined recipe;
//! 4. analyze the refined dataset and compare;
//! 5. "train" (proxy-evaluate) an LLM on the refined data;
//! 6. collate against reference models on the leaderboard.
//!
//! Run with: `cargo run --example feedback_loop`

use data_juicer::analyze::visualize;
use data_juicer::eval::{measure_profile, Leaderboard, ProxyLlm, ReferenceModel};
use data_juicer::prelude::*;
use data_juicer::synth::{ift_subset, IftSubsetSpec};

fn main() -> Result<()> {
    // An instruction dataset with the weaknesses Fig. 5 uncovers: low
    // expression diversity and junky short responses.
    let mut original = ift_subset(
        5,
        &IftSubsetSpec::new("raw-ift", 1500)
            .diversity(0.25)
            .junk_rate(0.3),
    );

    // ---- Step 1: analyze the original dataset -------------------------
    // The probe records its stats on the samples; a filter measures its
    // own again, so the recipe below decides on what it measures.
    let probe = Analyzer::new().probe(&mut original);
    println!(
        "STEP 1 — original data probe ({} samples)",
        probe.sample_count
    );
    print!(
        "{}",
        visualize::verb_noun_tree(
            "top root verbs and their direct objects",
            &probe.top_verbs(5, 3)
        )
    );
    println!("verb-noun entropy: {:.2} bits\n", probe.verb_noun_entropy());

    // ---- Step 2: refine the recipe parameters -------------------------
    // The probe shows junk (very short responses) and repetition: tighten
    // word_repetition and length thresholds — the exact edit Fig. 5 shows
    // (rep_len 10→3, max_ratio 0.5→0.23). Both filters judge the response:
    // `text` also holds the instruction, which hides a short junk answer.
    let mut recipe = Recipe::new("ift-refine")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("word_repetition_filter")
                .with("field", "response")
                .with("rep_len", 10i64)
                .with("max_ratio", 0.5),
        )
        .then(
            OpSpec::new("text_length_filter")
                .with("field", "response")
                .with("min_len", 5.0)
                .with("max_len", 1e6),
        )
        .then(OpSpec::new("document_deduplicator"));
    println!("STEP 2 — refining recipe parameters");
    recipe.set_param("word_repetition_filter", "rep_len", Value::Int(3))?;
    recipe.set_param("word_repetition_filter", "max_ratio", Value::Float(0.23))?;
    recipe.set_param("text_length_filter", "min_len", Value::Float(40.0))?;
    println!("{}", recipe.to_yaml());

    // ---- Step 3: process with the refined recipe ----------------------
    let ops = recipe.build_ops(&builtin_registry())?;
    let (mut refined, report) = Executor::new(ops).run(original.clone())?;
    println!(
        "STEP 3 — processed: {} -> {} samples",
        report.initial_samples,
        refined.len()
    );
    assert!(
        refined.len() < report.initial_samples,
        "the refined recipe must drop the junk"
    );

    // ---- Step 4: analyze the refined dataset --------------------------
    let probe_after = Analyzer::new().probe(&mut refined);
    println!(
        "\nSTEP 4 — mean sample length {:.0} -> {:.0} chars; junk gone",
        probe.summaries["text_len"].mean, probe_after.summaries["text_len"].mean
    );

    // ---- Step 5: train/evaluate on the refined data -------------------
    let llm = ProxyLlm::new();
    let base = measure_profile(&mut original.clone(), 2.0e6);
    let refined_profile = measure_profile(&mut refined, 2.0e6);
    let before = llm.evaluate("LLM(original)", &base, 50.0);
    let after = llm.evaluate("LLM(refined)", &refined_profile, 50.0);
    println!(
        "STEP 5 — proxy avg score: original {:.2} vs refined {:.2}",
        before.average(),
        after.average()
    );

    // ---- Step 6: collate on the leaderboard ---------------------------
    let mut lb = Leaderboard::with_published_baselines();
    lb.register(ReferenceModel {
        name: "LLM(refined)".into(),
        training_data: "ift-refine recipe".into(),
        tokens_b: 50.0,
        result: after.clone(),
    });
    println!("\nSTEP 6 — data leaderboard:\n{}", lb.render());

    assert!(
        after.average() >= before.average(),
        "the loop must not regress"
    );
    println!("feedback loop complete: refined recipe registered as a reference model.");
    Ok(())
}
