//! Fig. 4 — interactive visualization: (a) tracking specific samples per
//! OP, (b) the OP-pipeline funnel, (c) the before/after distribution diff.
//!
//! Runs the flagship CommonCrawl refinement recipe and renders all three
//! panels as terminal output: (a) from the tracer (`dj_analyze::trace_op`),
//! each OP dry-run over what the OPs before it left, and (b), (c) from one
//! full run.

use dj_analyze::{trace_op, visualize, Analyzer, Effect};
use dj_bench::section;
use dj_config::recipes;
use dj_exec::{ExecOptions, Executor};
use dj_synth::{web_corpus, WebNoise};

fn main() {
    let data = web_corpus(404, 600, WebNoise::default());
    let mut before = data.clone();

    let ops = recipes::commoncrawl_refine()
        .build_ops(&dj_ops::builtin_registry())
        .expect("recipe valid");
    let options = ExecOptions {
        num_workers: 2,
        op_fusion: true,
        shard_size: None,
        ..ExecOptions::default()
    };

    section("Figure 4(a): tracking specific data samples per OP");
    let mut effects = Vec::new();
    let mut current = data.clone();
    for op in &ops {
        let trace = trace_op(op, &current).expect("op traces");
        if !trace.effects.is_empty() {
            print!("\n{}", trace.render(2));
        }
        effects.extend(trace.effects);
        // Advance past this op with a one-op run of the engine.
        let step = Executor::new(vec![op.clone()]).with_options(options.clone());
        current = step.run(current).expect("op runs").0;
    }

    let exec = Executor::new(ops).with_options(options);
    let (out, report) = exec.run(data).expect("pipeline runs");
    let mut after = out;

    section("Figure 4(b): effect of the OP pipeline (number of samples)");
    let mut funnel = vec![("input".to_string(), report.initial_samples)];
    funnel.extend(report.funnel());
    print!(
        "{}",
        visualize::funnel("samples remaining after each OP", &funnel, 40)
    );

    section("Figure 4(c): data distribution diff (alnum_ratio, before vs after)");
    let dims = ["alnum_ratio", "flagged_word_ratio", "word_rep_ratio"];
    let probe_before = Analyzer::new().with_dimensions(&dims).probe(&mut before);
    let probe_after = Analyzer::new().with_dimensions(&dims).probe(&mut after);
    print!(
        "{}",
        visualize::diff_histogram(
            "alnum_ratio",
            &probe_before.columns["alnum_ratio"],
            &probe_after.columns["alnum_ratio"],
            12,
            24,
        )
    );

    // Shape checks.
    assert!(report.final_samples < report.initial_samples);
    let edited = effects.iter().any(|e| matches!(e, Effect::Edit { .. }));
    let discarded = effects.iter().any(|e| matches!(e, Effect::Discard { .. }));
    assert!(
        edited && discarded,
        "tracer must capture edits and discards"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    for dim in dims {
        println!(
            "mean {dim}: before {:.3e}, after {:.3e}",
            mean(&probe_before.columns[dim]),
            mean(&probe_after.columns[dim])
        );
    }
    assert!(
        mean(&probe_after.columns["flagged_word_ratio"])
            < mean(&probe_before.columns["flagged_word_ratio"]) + 1e-12,
        "refinement must not raise the flagged-word ratio"
    );
    assert!(
        mean(&probe_after.columns["word_rep_ratio"])
            < mean(&probe_before.columns["word_rep_ratio"]),
        "refinement must reduce word repetition"
    );
    println!("\nshape check PASSED: trace, funnel and distribution diff all rendered");
}
