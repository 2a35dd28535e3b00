//! Columnar (`DJSC`) execution invariants: field-projection pushdown must
//! never change pipeline output, and its byte accounting must honor the
//! projected columns' share of the corpus. Row vs columnar spools over
//! random recipes is a row of `tests/mode_matrix.rs`; this file keeps the
//! metadata-heavy corpus, the byte accounting and the recipe knob.

use proptest::prelude::*;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{Dataset, Sample, Value};
use data_juicer::exec::{executor_from_recipe, ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{encode_columnar_frame, Codec, ColumnarSlab};
use data_juicer::synth::{web_corpus, WebNoise};

fn texts(d: &Dataset) -> Vec<String> {
    d.iter().map(|s| s.text().to_string()).collect()
}

/// A corpus where the text column is a minority of the bytes: every
/// sample drags provenance metadata an op never reads.
fn metadata_heavy_corpus(n: usize) -> Dataset {
    let mut ds = web_corpus(17, n, WebNoise::default());
    for (i, s) in ds.samples_mut().iter_mut().enumerate() {
        let root = s.value_mut();
        root.set_path(
            "url",
            Value::Str(format!("https://example.org/crawl/{i}/index.html")),
        )
        .unwrap();
        root.set_path("docid", Value::Str(format!("{i:032x}")))
            .unwrap();
        root.set_path(
            "headers",
            Value::Str("content-type: text/html; charset=utf-8; server: nginx/1.18; ".repeat(12)),
        )
        .unwrap();
        root.set_path(
            "render_log",
            Value::Str(
                format!("fetch {i}: dns 12ms, connect 31ms, ttfb 140ms, body 412ms; ").repeat(16),
            ),
        )
        .unwrap();
        root.set_path("crawl_ts", Value::Int(1_700_000_000 + i as i64))
            .unwrap();
    }
    ds
}

fn full_recipe() -> Recipe {
    Recipe::new("columnar-eq")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 10.0)
                .with("max_len", 1e9),
        )
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 3.0)
                .with("max_num", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
}

fn spill_opts(columnar: bool) -> ExecOptions {
    ExecOptions {
        num_workers: 2,
        op_fusion: true,
        trace_examples: 0,
        shard_size: Some(8),
        memory_budget: Some(1),
        columnar,
        ..ExecOptions::default()
    }
}

/// The headline equivalence: a spilled columnar run produces the same
/// output as the in-memory row engine, mappers, filters and the dedup
/// barrier included.
#[test]
fn columnar_spilled_run_matches_in_memory_output() {
    let registry = builtin_registry();
    let data = metadata_heavy_corpus(120);
    let ops = full_recipe().build_ops(&registry).unwrap();
    let baseline = Executor::new(ops.clone()).with_options(ExecOptions {
        num_workers: 1,
        op_fusion: false,
        trace_examples: 0,
        memory_budget: Some(u64::MAX),
        ..ExecOptions::default()
    });
    let (expected, _) = baseline.run(data.clone()).unwrap();

    let exec = Executor::new(ops).with_options(spill_opts(true));
    let (out, report) = exec.run(data).unwrap();
    assert!(report.spilled);
    assert!(report.columnar, "the report must flag columnar mode");
    assert_eq!(out, expected, "columnar output diverged from row engine");
    assert!(
        report.bytes_decoded > 0,
        "projected stages must account decoded bytes"
    );
    assert!(
        report.bytes_passthrough > 0,
        "untouched metadata columns must splice through undecoded"
    );
}

/// The acceptance bound: on a single-field filter recipe the run's
/// decoded bytes stay at or below the projected columns' raw share of
/// the corpus, which is itself far below the total (the metadata
/// majority never gets decoded).
#[test]
fn bytes_decoded_bounded_by_projected_columns_share() {
    let registry = builtin_registry();
    let data = metadata_heavy_corpus(100);

    // Reference frame over the whole corpus: per-column raw sizes are
    // additive across shards, so one frame prices the projected share.
    let frame = encode_columnar_frame(&data, Codec::Djz);
    let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
    let projected: u64 = ["text", "stats"]
        .iter()
        .filter_map(|c| slab.column_raw_len(c))
        .sum();
    let total = slab.total_raw_len();
    assert!(
        projected * 2 < total,
        "fixture must be metadata-heavy: projected {projected} vs total {total}"
    );

    let recipe = Recipe::new("single-field").then(
        OpSpec::new("text_length_filter")
            .with("min_len", 40.0)
            .with("max_len", 1e9),
    );
    let ops = recipe.build_ops(&registry).unwrap();
    let (_, report) = Executor::new(ops)
        .with_options(spill_opts(true))
        .run(data)
        .unwrap();
    assert!(report.spilled && report.columnar);
    assert!(report.bytes_decoded > 0);
    assert!(
        report.bytes_decoded <= projected,
        "decoded {} bytes but the projected columns hold only {projected}",
        report.bytes_decoded
    );
    assert!(report.bytes_passthrough > 0);
    // Per-op accounting: the filter reports the stage's decode.
    let op = report
        .ops
        .iter()
        .find(|o| o.name.contains("text_length_filter"))
        .unwrap();
    assert!(op.bytes_decoded > 0 && op.bytes_decoded <= projected);
}

/// The recipe knob drives columnar mode end to end, surviving a YAML
/// round-trip, with output equal to the same recipe in row format.
#[test]
fn recipe_columnar_knob_engages_and_matches_row_output() {
    let registry = builtin_registry();
    let data = metadata_heavy_corpus(80);
    let row = full_recipe()
        .with_np(2)
        .with_shard_size(8)
        .with_memory_budget(1);
    let columnar = Recipe::from_yaml(&row.clone().with_columnar(true).to_yaml()).unwrap();
    assert!(columnar.columnar, "knob must survive the YAML round-trip");
    let (expected, _) = executor_from_recipe(&row, &registry, true)
        .unwrap()
        .run(data.clone())
        .unwrap();
    let (out, report) = executor_from_recipe(&columnar, &registry, true)
        .unwrap()
        .run(data)
        .unwrap();
    assert!(report.spilled && report.columnar);
    assert_eq!(texts(&out), texts(&expected));
}

/// Tracing decodes everything (trace events quote sample text), but must
/// not change the output either.
#[test]
fn columnar_with_tracing_still_matches() {
    let registry = builtin_registry();
    let data = metadata_heavy_corpus(60);
    let ops = full_recipe().build_ops(&registry).unwrap();
    let (expected, _) = Executor::new(ops.clone())
        .with_options(spill_opts(false))
        .run(data.clone())
        .unwrap();
    let mut opts = spill_opts(true);
    opts.trace_examples = 3;
    let (out, report) = Executor::new(ops).with_options(opts).run(data).unwrap();
    assert_eq!(out, expected);
    assert!(report.ops.iter().any(|o| !o.trace.is_empty()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Columnar frames round-trip arbitrary samples — unicode text,
    /// missing fields, explicit nulls, nested maps — and re-encoding the
    /// decoded dataset reproduces the frame byte for byte.
    #[test]
    fn prop_columnar_roundtrip_is_byte_identical(
        rows in proptest::collection::vec(
            (
                "[ -~\\n\u{00e9}\u{4e16}\u{754c}]{0,40}",
                0i64..1000,
                (any::<bool>(), any::<bool>()),
            ),
            0..12,
        ),
    ) {
        let mut ds = Dataset::new();
        for (i, (text, score, (with_score, tag))) in rows.iter().enumerate() {
            let mut s = Sample::from_text(text.clone());
            let root = s.value_mut();
            if *with_score {
                root.set_path("score", Value::Int(*score)).unwrap();
            }
            if *tag {
                root.set_path("meta.source", Value::Str(format!("src-{i}"))).unwrap();
                root.set_path("flag", Value::Null).unwrap();
            }
            ds.push(s);
        }
        for codec in [Codec::None, Codec::Djz] {
            let frame = encode_columnar_frame(&ds, codec);
            let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
            let decoded = slab.decode().unwrap();
            prop_assert_eq!(&decoded, &ds);
            let again = encode_columnar_frame(&decoded, codec);
            prop_assert_eq!(again, frame, "re-encode must be deterministic");
        }
    }
}
