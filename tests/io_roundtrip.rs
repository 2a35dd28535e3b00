//! Streaming-IO round-trip tests: file-backed `run_io` must be
//! byte-identical to the in-memory engine across escaping, unicode, empty
//! lines and arbitrary knob settings; malformed records must surface as
//! typed errors carrying `path:line`; egress manifests must account for
//! every byte; and the whole path must stay constant-memory with
//! single-pass (fingerprint-on-ingest) dedup barriers. A file-backed run
//! always spools.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{Dataset, DjError, Sample};
use data_juicer::exec::{EgressManifest, ExecOptions, Executor, OutputFormat};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{envelope, to_bytes, to_jsonl, FrameSlab};
use data_juicer::synth::{web_corpus, WebNoise};

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dj-io-rt-{tag}-{}", std::process::id()))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = unique_dir(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A recipe whose tail is a dedup barrier, so file-backed runs exercise
/// fingerprint-on-ingest.
fn dedup_recipe() -> Recipe {
    Recipe::new("io-roundtrip")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 1.0)
                .with("max_len", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
}

/// The in-memory reference: sequential, no memory budget.
fn in_memory_reference(ops: Vec<data_juicer::core::Op>, data: Dataset) -> Dataset {
    let exec = Executor::new(ops).with_options(ExecOptions {
        num_workers: 1,
        op_fusion: false,
        ..ExecOptions::default()
    });
    exec.run(data).unwrap().0
}

/// Write `data` as `files` JSONL shards under `dir` (zero-padded names so
/// sorted glob order is write order) and return the matching glob.
fn write_corpus_files(dir: &Path, data: &Dataset, files: usize) -> String {
    for (i, shard) in data.clone().into_shards(files).iter().enumerate() {
        fs::write(dir.join(format!("{i:02}.jsonl")), to_jsonl(shard)).unwrap();
    }
    format!("{}/*.jsonl", dir.display())
}

/// A corpus with every serialization hazard the JSONL path must survive:
/// escapes, embedded newlines/tabs, unicode, control chars, empty and
/// whitespace-only texts, plus guaranteed cross-shard duplicates.
fn tricky_corpus() -> Dataset {
    let mut ds = web_corpus(17, 48, WebNoise::default());
    for t in [
        "tabs\tand \"double quotes\" and back\\slashes and a literal \\n",
        "unicode: héllo wörld — 你好世界 🚀 ∑ π ≈ 3.14159",
        "",
        "   leading and trailing whitespace   ",
        "an embedded\nnewline and\r\ncarriage return",
        "control chars: \u{1} \u{7} \u{1f} done",
        "slash/forward and \u{2028} line separator",
    ] {
        ds.push(Sample::from_text(t));
    }
    let copies: Vec<_> = ds.iter().take(9).cloned().collect();
    for s in copies {
        ds.push(s);
    }
    ds
}

/// The headline round-trip: ingest from sharded JSONL files (with blank
/// lines thrown in), stream the whole plan, egress manifest-tracked JSONL
/// parts — and the concatenated parts are byte-identical to `to_jsonl` of
/// the in-memory engine's output. The barrier runs one streaming pass
/// from ingest-time fingerprints and residency stays within the
/// `np × shard_size` ceiling: one live shard per worker.
#[test]
fn file_backed_run_is_byte_identical_to_in_memory() {
    let input_dir = fresh_dir("main-in");
    let out_dir = unique_dir("main-out");
    let _ = fs::remove_dir_all(&out_dir);
    let data = tricky_corpus();
    let pattern = write_corpus_files(&input_dir, &data, 3);
    // Blank lines are skipped by ingest, exactly like `from_jsonl`.
    let f0 = input_dir.join("00.jsonl");
    let with_blanks = format!("\n{}\n\n", fs::read_to_string(&f0).unwrap());
    fs::write(&f0, with_blanks).unwrap();

    let ops = dedup_recipe().build_ops(&builtin_registry()).unwrap();
    let expected = in_memory_reference(ops.clone(), data.clone());

    let _ = fs::remove_dir_all(&out_dir);
    let (np, shard_size) = (3usize, 8usize);
    let exec = Executor::new(ops.clone()).with_options(ExecOptions {
        num_workers: np,
        shard_size: Some(shard_size),
        input: Some(pattern.clone()),
        output: Some(out_dir.clone()),
        ..ExecOptions::default()
    });
    let (out, report) = exec.run_io().unwrap();
    assert!(out.is_none(), "egress to a directory returns no dataset");
    assert!(report.spilled);
    assert_eq!(report.initial_samples, data.len());
    assert_eq!(report.final_samples, expected.len());
    assert!(report.ingest_bytes > 0);
    assert!(report.egress_bytes > 0);
    assert!(
        report.fingerprinted_barriers >= 1,
        "ingest-adjacent barrier must consume ingest-time fingerprints"
    );
    let bound = np * shard_size;
    assert!(
        report.peak_resident_samples <= bound,
        "{} resident samples > bound {bound}",
        report.peak_resident_samples
    );

    let manifest = EgressManifest::load(&out_dir).unwrap();
    assert_eq!(manifest.format, OutputFormat::Jsonl);
    assert_eq!(manifest.total_samples, expected.len());
    let mut concat = String::new();
    for part in &manifest.parts {
        concat.push_str(&fs::read_to_string(out_dir.join(&part.file)).unwrap());
    }
    assert_eq!(
        concat,
        to_jsonl(&expected),
        "egress bytes diverge from the in-memory engine"
    );
    // The manifest accounts for every byte on disk.
    let part_sum: u64 = manifest.parts.iter().map(|p| p.bytes).sum();
    assert_eq!(part_sum, manifest.total_bytes);
    assert_eq!(report.egress_bytes, manifest.total_bytes);
    for part in &manifest.parts {
        let on_disk = fs::metadata(out_dir.join(&part.file)).unwrap().len();
        assert_eq!(on_disk, part.bytes, "{} size drifted", part.file);
    }

    let _ = fs::remove_dir_all(&input_dir);
    let _ = fs::remove_dir_all(&out_dir);
}

/// `frames` egress re-reads through the spool frame decoder to exactly the
/// dataset the in-memory engine produces — the zero-copy output format
/// loses nothing.
#[test]
fn frames_egress_round_trips_through_the_frame_format() {
    let input_dir = fresh_dir("frames-in");
    let out_dir = unique_dir("frames-out");
    let _ = fs::remove_dir_all(&out_dir);
    let data = tricky_corpus();
    let pattern = write_corpus_files(&input_dir, &data, 2);
    let ops = dedup_recipe().build_ops(&builtin_registry()).unwrap();
    let expected = in_memory_reference(ops.clone(), data);

    let _ = fs::remove_dir_all(&out_dir);
    let exec = Executor::new(ops.clone()).with_options(ExecOptions {
        num_workers: 2,
        shard_size: Some(6),
        input: Some(pattern.clone()),
        output: Some(out_dir.clone()),
        output_format: OutputFormat::Frames,
        ..ExecOptions::default()
    });
    let (_, report) = exec.run_io().unwrap();
    assert!(report.egress_bytes > 0);

    let manifest = EgressManifest::load(&out_dir).unwrap();
    assert_eq!(manifest.format, OutputFormat::Frames);
    let mut rebuilt = Dataset::new();
    for part in &manifest.parts {
        let bytes = fs::read(out_dir.join(&part.file)).unwrap();
        // One frame per part: the envelope refuses trailing bytes.
        envelope::open_one(&bytes).expect("one frame per part");
        let shard = FrameSlab::from_frame_bytes(&bytes)
            .unwrap()
            .decode()
            .unwrap();
        assert_eq!(shard.len(), part.samples, "{} sample count", part.file);
        for s in shard.iter() {
            rebuilt.push(s.clone());
        }
    }
    assert_eq!(rebuilt, expected);
    assert_eq!(manifest.total_samples, expected.len());

    let _ = fs::remove_dir_all(&input_dir);
    let _ = fs::remove_dir_all(&out_dir);
}

/// A malformed record is a typed parse error naming the file and the
/// 1-based line — even though ingest is parallel and streaming.
#[test]
fn malformed_record_is_a_typed_error_with_line_number() {
    let dir = fresh_dir("bad");
    fs::write(
        dir.join("bad.jsonl"),
        "{\"text\":\"ok\"}\n{\"text\":\"fine\"}\n{this is not json}\n",
    )
    .unwrap();
    let ops = dedup_recipe().build_ops(&builtin_registry()).unwrap();
    let exec = Executor::new(ops).with_options(ExecOptions {
        num_workers: 2,
        shard_size: Some(2),
        input: Some(format!("{}/bad.jsonl", dir.display())),
        ..ExecOptions::default()
    });
    let err = exec.run_io().unwrap_err();
    assert!(matches!(err, DjError::Parse(_)), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("bad.jsonl"), "file name missing: {msg}");
    assert!(msg.contains(":3:"), "line number missing: {msg}");
    let _ = fs::remove_dir_all(&dir);
}

/// CSV ingest end-to-end: quoted commas, doubled quotes and embedded
/// newlines all arrive intact, and extra columns ride along as fields.
#[test]
fn csv_ingest_end_to_end() {
    let dir = fresh_dir("csv");
    fs::write(
        dir.join("corpus.csv"),
        "text,meta.lang\n\
         \"a quoted field, with a comma\",en\n\
         \"doubled \"\"quotes\"\" and an\nembedded newline\",en\n\
         plain text row,fr\n",
    )
    .unwrap();
    let ops = Recipe::new("csv-e2e")
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 0.0)
                .with("max_len", 1e9),
        )
        .build_ops(&builtin_registry())
        .unwrap();
    let exec = Executor::new(ops.clone()).with_options(ExecOptions {
        num_workers: 2,
        shard_size: Some(2),
        input: Some(format!("{}/*.csv", dir.display())),
        ..ExecOptions::default()
    });
    let (out, report) = exec.run_io().unwrap();
    let out = out.unwrap();
    assert_eq!(report.initial_samples, 3);
    assert_eq!(
        out.iter().map(|s| s.text()).collect::<Vec<_>>(),
        vec![
            "a quoted field, with a comma",
            "doubled \"quotes\" and an\nembedded newline",
            "plain text row",
        ]
    );
    assert_eq!(
        out.get(2)
            .unwrap()
            .value()
            .get_path("meta.lang")
            .and_then(|v| v.as_str()),
        Some("fr")
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The committed fixture corpus runs end-to-end.
#[test]
fn fixture_corpus_runs_end_to_end() {
    let pattern = "fixtures/*.jsonl".to_string();
    let ops = dedup_recipe().build_ops(&builtin_registry()).unwrap();
    let exec = Executor::new(ops.clone()).with_options(ExecOptions {
        num_workers: 2,
        shard_size: Some(4),
        input: Some(pattern.clone()),
        ..ExecOptions::default()
    });
    let (out, report) = exec.run_io().unwrap();
    let out = out.unwrap();
    assert!(report.initial_samples > 0, "corpus `{pattern}` is empty");
    assert!(!out.is_empty());
    assert!(report.ingest_bytes > 0);
    assert!(
        report.fingerprinted_barriers >= 1,
        "fixture run must fingerprint on ingest"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random corpora (arbitrary unicode, escape-heavy strings, empty
    /// texts), worker counts, shard sizes and file splits: the file-backed
    /// run returns exactly the in-memory result, JSONL egress is
    /// byte-identical to `to_jsonl` of it, and residency stays within
    /// `np × shard_size`.
    #[test]
    fn prop_file_backed_matches_in_memory(
        texts in proptest::collection::vec(
            prop_oneof![
                ".{0,40}".prop_map(|s: String| s),
                (0usize..8).prop_map(|i| [
                    "",
                    "\"",
                    "\\",
                    "a \\\"nested\\\" escape",
                    "tab\there",
                    "line\nbreak",
                    "héllo — 🚀 你好",
                    "control \u{1}\u{1f} chars",
                ][i].to_string()),
            ],
            1..48,
        ),
        np in 1usize..4,
        shard_size in 1usize..9,
        files in 1usize..4,
    ) {
        let tag = format!("prop-{np}-{shard_size}-{files}-{}", texts.len());
        let input_dir = fresh_dir(&format!("{tag}-in"));
        let out_dir = unique_dir(&format!("{tag}-out"));
        let _ = fs::remove_dir_all(&out_dir);
        let data = Dataset::from_texts(texts);
        let pattern = write_corpus_files(&input_dir, &data, files);

        let ops = dedup_recipe().build_ops(&builtin_registry()).unwrap();
        let expected = in_memory_reference(ops.clone(), data.clone());

        let options = ExecOptions {
            num_workers: np,
            shard_size: Some(shard_size),
            input: Some(pattern),
            ..ExecOptions::default()
        };

        // Materializing run: the returned dataset is the in-memory result.
        let exec = Executor::new(ops.clone()).with_options(options.clone());
        let (out, report) = exec.run_io().unwrap();
        prop_assert_eq!(
            to_bytes(&out.unwrap()).as_slice(),
            to_bytes(&expected).as_slice(),
            "np={} shard_size={} files={} diverged", np, shard_size, files
        );
        prop_assert_eq!(report.initial_samples, data.len());
        let bound = np * shard_size;
        prop_assert!(
            report.peak_resident_samples <= bound,
            "{} resident samples > bound {}", report.peak_resident_samples, bound
        );

        // Egress run: concatenated manifest parts are `to_jsonl(expected)`.
        let exec = Executor::new(ops).with_options(ExecOptions {
            output: Some(out_dir.clone()),
            ..options
        });
        let (none, _) = exec.run_io().unwrap();
        prop_assert!(none.is_none());
        let manifest = EgressManifest::load(&out_dir).unwrap();
        let mut concat = String::new();
        for part in &manifest.parts {
            concat.push_str(&fs::read_to_string(out_dir.join(&part.file)).unwrap());
        }
        prop_assert_eq!(concat, to_jsonl(&expected));
        prop_assert_eq!(manifest.total_samples, expected.len());

        let _ = fs::remove_dir_all(&input_dir);
        let _ = fs::remove_dir_all(&out_dir);
    }
}
