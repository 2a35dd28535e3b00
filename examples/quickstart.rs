//! Quickstart: load raw JSONL, configure a recipe from YAML, run it, and
//! inspect the report — the zero-to-processed path of the README.
//!
//! Run with: `cargo run --example quickstart`

use data_juicer::ops::{build_formatter, builtin_registry};
use data_juicer::prelude::*;

fn main() -> Result<()> {
    // 1. Raw input: JSON-Lines, one document per line.
    let raw = r#"
{"text": "The committee reviewed the annual report and found the analysis sound.", "source": "news"}
{"text": "The   committee   reviewed the annual report and found the analysis sound.", "source": "mirror"}
{"text": "buy now buy now buy now buy now buy now buy now visit https://spam.example now", "source": "web"}
{"text": "tiny", "source": "web"}
{"text": "Large language models are trained on heterogeneous corpora gathered from the web.", "source": "wiki"}
"#;
    let formatter = build_formatter("jsonl_formatter")?;
    let dataset = formatter.load_dataset(raw.trim())?;
    println!("loaded {} samples", dataset.len());

    // 2. A recipe, written the way the paper's Fig. 5 configs look.
    let recipe = Recipe::from_yaml(
        r#"
project_name: quickstart
np: 2
process:
  - whitespace_normalization_mapper:
  - clean_links_mapper:
  - text_length_filter:
      min_len: 20
      max_len: 100000
  - word_repetition_filter:
      rep_len: 3
      min_ratio: 0.0
      max_ratio: 0.3
  - document_deduplicator:
      lowercase: true
"#,
    )?;

    // 3. Build against the 50+-OP registry and execute.
    let registry = builtin_registry();
    let ops = recipe.build_ops(&registry)?;
    let exec = Executor::new(ops).with_options(ExecOptions {
        num_workers: recipe.np,
        op_fusion: true,
        shard_size: None,
        ..ExecOptions::default()
    });
    let (output, report) = exec.run(dataset)?;

    // 4. Inspect.
    println!("\nper-OP funnel:");
    for (name, remaining) in report.funnel() {
        println!("  {name:<45} -> {remaining} samples");
    }
    println!("\nsurviving documents:");
    for s in output.iter() {
        println!(
            "  [{}] {}",
            s.meta("source").and_then(|v| v.as_str()).unwrap_or("?"),
            s.text()
        );
    }
    assert_eq!(output.len(), 2, "spam, tiny and the duplicate are gone");
    println!(
        "\nquickstart finished: {} -> {} samples",
        report.initial_samples,
        output.len()
    );
    Ok(())
}
