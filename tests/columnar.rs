//! Columnar (`DJSC`) execution invariants: field-projection pushdown must
//! never change pipeline output, and its byte accounting must honor the
//! projected columns' share of the corpus. Spilled runs over random
//! recipes are a row of `tests/mode_matrix.rs`; this file keeps the
//! metadata-heavy corpus, the byte accounting, the retired recipe knob and
//! the masks a stage leaves on its spool.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{Dataset, FieldSet, Mapper, Op, Result, Sample, SampleContext, Value};
use data_juicer::exec::{executor_from_recipe, EgressManifest, ExecOptions, Executor};
use data_juicer::hash::fnv1a;
use data_juicer::ops::builtin_registry;
use data_juicer::store::{
    encode_columnar_frame, to_jsonl, CacheManager, CacheMode, Codec, ColumnarSlab, Frame,
};
use data_juicer::synth::{web_corpus, WebNoise};

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

fn spill_opts() -> ExecOptions {
    ExecOptions {
        num_workers: 2,
        op_fusion: true,
        shard_size: Some(8),
        memory_budget: Some(1),
        ..ExecOptions::default()
    }
}

/// The in-memory run of `ops`: the reference every spilled run equals.
fn resident_run(ops: &[data_juicer::core::Op], data: Dataset) -> Dataset {
    let baseline = Executor::new(ops.to_vec()).with_options(ExecOptions {
        num_workers: 1,
        op_fusion: false,
        ..ExecOptions::default()
    });
    baseline.run(data).unwrap().0
}

/// The headline equivalence: a spilled columnar run produces the same
/// output as the in-memory row engine, mappers, filters and the dedup
/// barrier included.
#[test]
fn columnar_spilled_run_matches_in_memory_output() {
    let registry = builtin_registry();
    let data = metadata_heavy_corpus(120);
    let ops = full_recipe().build_ops(&registry).unwrap();
    let expected = resident_run(&ops, data.clone());

    let exec = Executor::new(ops).with_options(spill_opts());
    let (out, report) = exec.run(data).unwrap();
    assert!(report.spilled);
    assert_eq!(
        out, expected,
        "columnar output diverged from the resident run"
    );
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
        .with_options(spill_opts())
        .run(data)
        .unwrap();
    assert!(report.spilled);
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

/// The retired recipe knob survives a YAML round-trip and changes nothing:
/// every spilled run is columnar, with it or without it.
#[test]
fn recipe_columnar_knob_round_trips_and_changes_nothing() {
    let registry = builtin_registry();
    let data = metadata_heavy_corpus(80);
    let plain = full_recipe()
        .with_np(2)
        .with_shard_size(8)
        .with_memory_budget(1);
    let columnar = Recipe::from_yaml(&plain.clone().with_columnar(true).to_yaml()).unwrap();
    assert!(columnar.columnar, "knob must survive the YAML round-trip");
    let run = |recipe: &Recipe| {
        executor_from_recipe(recipe, &registry, true)
            .unwrap()
            .run(data.clone())
            .unwrap()
    };
    let (expected, plain_report) = run(&plain);
    let (out, report) = run(&columnar);
    assert!(report.spilled);
    assert_eq!(out, expected);
    let bytes = |r: &data_juicer::exec::RunReport| (r.bytes_decoded, r.bytes_passthrough);
    assert_eq!(bytes(&report), bytes(&plain_report));
    assert!(report.bytes_passthrough > 0);
}

/// A mapper that declares no footprint: it reads a metadata column and
/// rewrites `text` with it, so a stage that runs it must decode every
/// column.
struct DocidStamp;

impl Mapper for DocidStamp {
    fn name(&self) -> &'static str {
        "docid_stamp_mapper"
    }
    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        let docid = sample.value().get_path("docid").and_then(Value::as_str);
        let tail = docid.map_or("", |id| &id[id.len().saturating_sub(8)..]);
        let stamped = format!("{} #{tail}", sample.text());
        sample.set_text(stamped);
        Ok(true)
    }
}

/// A stage behind a barrier whose mapper declares no footprint
/// (`FieldSet::All`) decodes every column of every sample the barrier's
/// mask keeps, so nothing splices through: spilled and file to file, the
/// output is the resident run's byte for byte, and no byte passes through
/// undecoded.
#[test]
fn a_mapper_without_a_footprint_decodes_every_column_behind_a_barrier() {
    let data = metadata_heavy_corpus(60);
    let mut ops = Recipe::new("no-footprint")
        .then(OpSpec::new("document_deduplicator"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 300.0)
                .with("max_len", 1e9),
        )
        .build_ops(&builtin_registry())
        .unwrap();
    ops.insert(1, Op::Mapper(Arc::new(DocidStamp)));
    let expected = to_jsonl(&resident_run(&ops, data.clone()));
    assert!(expected.contains(" #0000"), "the mapper stamped no docid");

    let (out, report) = Executor::new(ops.clone())
        .with_options(spill_opts())
        .run(data.clone())
        .unwrap();
    assert!(report.spilled);
    assert_eq!(to_jsonl(&out), expected, "spilled");
    assert!(report.ops.iter().any(|o| o.removed > 0));
    assert!(report.bytes_decoded > 0);
    assert_eq!(report.bytes_passthrough, 0, "spilled");

    let input = tmp_dir("all-in");
    std::fs::create_dir_all(&input).unwrap();
    std::fs::write(input.join("corpus.jsonl"), to_jsonl(&data)).unwrap();
    let out_dir = tmp_dir("all-out");
    let (_, report) = Executor::new(ops)
        .with_options(ExecOptions {
            input: Some(format!("{}/*.jsonl", input.display())),
            output: Some(out_dir.clone()),
            ..spill_opts()
        })
        .run_io()
        .unwrap();
    let manifest = EgressManifest::load(&out_dir).unwrap();
    let output: String = manifest
        .parts
        .iter()
        .map(|p| std::fs::read_to_string(out_dir.join(&p.file)).unwrap())
        .collect();
    assert_eq!(output, expected, "file to file");
    assert_eq!(report.bytes_passthrough, 0, "file to file");
    let _ = std::fs::remove_dir_all(&input);
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// The meta benchmark's shape: an exact-dedup barrier, a stage whose
/// filters drop samples (and whose ops read only `text`), then a SimHash
/// barrier.
fn meta_shape_recipe() -> Recipe {
    Recipe::new("meta-shape")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 40.0)
                .with("max_len", 1e6),
        )
        .then(OpSpec::new("document_deduplicator"))
        .then(OpSpec::new("clean_links_mapper"))
        .then(
            OpSpec::new("word_num_filter")
                .with("min_num", 70.0)
                .with("max_num", 1e9),
        )
        .then(
            OpSpec::new("special_characters_filter")
                .with("min_ratio", 0.0)
                .with("max_ratio", 0.3),
        )
        .then(OpSpec::new("document_simhash_deduplicator"))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dj-columnar-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The stage between the two barriers drops samples, and a columnar stage
/// leaves them stored under a mask instead of rewriting the regions it
/// never decoded. That mask must not cost the SimHash barrier the
/// fingerprints the stage carried — they hash exactly the samples the stage
/// kept — so both barriers cluster from carried fingerprints, and the
/// output is still the in-memory run's.
#[test]
fn a_stage_mask_keeps_carried_fingerprints_file_to_file() {
    let data = metadata_heavy_corpus(160);
    let ops = meta_shape_recipe().build_ops(&builtin_registry()).unwrap();
    let (expected, _) = Executor::new(ops.clone())
        .with_options(ExecOptions {
            num_workers: 1,
            ..ExecOptions::default()
        })
        .run(data.clone())
        .unwrap();
    let input = tmp_dir("mask-in");
    std::fs::create_dir_all(&input).unwrap();
    std::fs::write(input.join("corpus.jsonl"), to_jsonl(&data)).unwrap();
    let out_dir = tmp_dir("mask-out");
    for np in [1, 2] {
        let _ = std::fs::remove_dir_all(&out_dir);
        let (_, report) = Executor::new(ops.clone())
            .with_options(ExecOptions {
                num_workers: np,
                shard_size: Some(8),
                input: Some(format!("{}/*.jsonl", input.display())),
                output: Some(out_dir.clone()),
                ..ExecOptions::default()
            })
            .run_io()
            .unwrap();
        let dropped = |name: &str| report.ops.iter().find(|o| o.name == name).unwrap().removed;
        assert!(dropped("word_num_filter") > 0 && dropped("document_simhash_deduplicator") > 0);
        assert_eq!(report.fingerprinted_barriers, 2, "np {np}");
        let manifest = EgressManifest::load(&out_dir).unwrap();
        let output: String = manifest
            .parts
            .iter()
            .map(|p| std::fs::read_to_string(out_dir.join(&p.file)).unwrap())
            .collect();
        assert_eq!(output, to_jsonl(&expected), "np {np}");
    }
    let _ = std::fs::remove_dir_all(&input);
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// Two deduplicators in a row, file to file: the second barrier has no
/// stage before it to carry fingerprints, so it hashes `text` from the
/// spool the first one masked — JSON text, a plain string borrowed where
/// it sits, any other parsed. The output is the resident run's at every np.
#[test]
fn back_to_back_deduplicators_file_to_file_match_the_resident_run() {
    let mut data = metadata_heavy_corpus(120);
    let copies: Vec<Sample> = data.iter().step_by(7).cloned().collect();
    for (k, mut s) in copies.into_iter().enumerate() {
        if k % 2 == 0 {
            // A near duplicate, with characters JSON escapes.
            let text = format!("{} \"quoted\"\tand\\slashed", s.text());
            s.set_text(text);
        }
        data.push(s);
    }
    let ops = Recipe::new("two-dedups")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("document_deduplicator"))
        .then(OpSpec::new("document_simhash_deduplicator"))
        .build_ops(&builtin_registry())
        .unwrap();
    let expected = resident_run(&ops, data.clone());
    assert!(expected.len() < data.len());
    let input = tmp_dir("dedups-in");
    std::fs::create_dir_all(&input).unwrap();
    std::fs::write(input.join("corpus.jsonl"), to_jsonl(&data)).unwrap();
    let out_dir = tmp_dir("dedups-out");
    for np in [1, 2] {
        let _ = std::fs::remove_dir_all(&out_dir);
        let (_, report) = Executor::new(ops.clone())
            .with_options(ExecOptions {
                num_workers: np,
                shard_size: Some(16),
                input: Some(format!("{}/*.jsonl", input.display())),
                output: Some(out_dir.clone()),
                ..ExecOptions::default()
            })
            .run_io()
            .unwrap();
        let removed = |name: &str| report.ops.iter().find(|o| o.name == name).unwrap().removed;
        assert!(removed("document_deduplicator") > 0, "np {np}");
        assert!(report.fingerprinted_barriers < 2, "np {np}");
        let manifest = EgressManifest::load(&out_dir).unwrap();
        let output: String = manifest
            .parts
            .iter()
            .map(|p| std::fs::read_to_string(out_dir.join(&p.file)).unwrap())
            .collect();
        assert_eq!(output, to_jsonl(&expected), "np {np}");
    }
    let _ = std::fs::remove_dir_all(&input);
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// A cache entry's sealed frames, one per slot file, in slot order.
fn entry_frames(entry: &std::path::Path) -> Vec<Vec<u8>> {
    let mut slots: Vec<std::path::PathBuf> = std::fs::read_dir(entry)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "djs"))
        .collect();
    slots.sort();
    slots.iter().map(|p| std::fs::read(p).unwrap()).collect()
}

/// A cache entry's slot files concatenated in slot order: the bytes a
/// flat entry file of earlier releases held.
fn entry_bytes(entry: &std::path::Path) -> Vec<u8> {
    entry_frames(entry).concat()
}

/// The FNV-1a of an entry's samples printed as JSONL: what the entry holds,
/// whatever layout its frames store it in.
fn entry_samples_sum(entry: &std::path::Path) -> u64 {
    let mut samples = Dataset::new();
    for sealed in entry_frames(entry) {
        samples.extend(Frame::parse(&sealed).unwrap().decode(None, None).unwrap().0);
    }
    fnv1a(to_jsonl(&samples).as_bytes())
}

/// Cache entries of a spilled columnar run are made of compacted frames:
/// the dead entries a stage mask or a barrier mask leaves on the spool
/// leave the bytes on the way into the entry. Pinned: each entry's length
/// and FNV-1a, and the FNV-1a of the samples it holds. The samples are
/// those the release before stage masks stored (stages then compacted
/// every frame they stored, and the touched columns were tagged values);
/// the bytes are the same entries with every column stored as JSON text,
/// each region its entries alone (layout version 3). A deliberate change
/// to the frame layout re-pins the bytes, never the samples. Each entry's key is pinned with it: the
/// content identity of the stage's output, the same at every np.
#[test]
fn a_cached_run_behind_a_stage_mask_saves_the_entries_it_always_saved() {
    // Per stage, in order: key, entry length, FNV-1a of the entry, FNV-1a
    // of its samples as JSONL.
    const ENTRIES: [(u64, usize, u64, u64); 4] = [
        (
            0x2bde_ef65_bf30_1810,
            387_523,
            13_243_660_767_408_021_513,
            12_399_570_063_049_191_649,
        ),
        (
            0x815c_12f2_3359_3147,
            362_959,
            18_133_952_182_522_008_377,
            145_428_130_775_030_558,
        ),
        (
            0x7017_bdcb_f324_90f2,
            230_175,
            16_977_521_081_111_160_512,
            6_543_206_247_526_639_590,
        ),
        (
            0xbc26_b5a3_f02a_fe47,
            225_160,
            3_083_314_771_239_053_462,
            8_173_733_058_474_912_694,
        ),
    ];
    let data = metadata_heavy_corpus(160);
    for np in [1, 2] {
        let dir = tmp_dir(&format!("cache-{np}"));
        let cache = CacheManager::new(dir.join("cache"), CacheMode::Cache);
        let (out, report) = executor_from_recipe(&meta_shape_recipe(), &builtin_registry(), true)
            .unwrap()
            .with_options(ExecOptions {
                num_workers: np,
                shard_size: Some(8),
                memory_budget: Some(1),
                spill_dir: Some(dir.join("spill")),
                ..ExecOptions::default()
            })
            .run_with_cache(data.clone(), &cache)
            .unwrap();
        assert!(report.spilled);
        let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("cache"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        let got: Vec<(String, usize, u64, u64)> = entries
            .iter()
            .map(|path| {
                let bytes = entry_bytes(path);
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, bytes.len(), fnv1a(&bytes), entry_samples_sum(path))
            })
            .collect();
        let mut want: Vec<(String, usize, u64, u64)> = ENTRIES
            .iter()
            .map(|(key, len, sum, samples)| (format!("{key:016x}"), *len, *sum, *samples))
            .collect();
        want.sort();
        assert_eq!(got, want, "np {np}");
        // The last stage's entry stores exactly the run's output, no dead
        // entry.
        let last = format!("{:016x}", ENTRIES[3].0);
        let stored: usize = entry_frames(&dir.join("cache").join(last))
            .iter()
            .map(|sealed| Frame::parse(sealed).unwrap().sample_count())
            .sum();
        assert_eq!(stored, out.len(), "np {np}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A mapper that changes nothing and, on its first sample, looks at the
/// spool its stage reads: per slot file, the raw JSON columns of the frame.
/// Each sample also says whether it carries `url`. It declares its
/// footprint `text` when `declared`, [`FieldSet::All`] otherwise.
struct SpoolProbe {
    spill: std::path::PathBuf,
    declared: bool,
    /// (raw JSON columns over every slot, samples seen, samples with `url`).
    seen: Mutex<(Vec<String>, usize, usize)>,
}

impl Mapper for SpoolProbe {
    fn name(&self) -> &'static str {
        "spool_probe_mapper"
    }

    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        let mut seen = self.seen.lock().unwrap();
        if seen.1 == 0 {
            for spool in std::fs::read_dir(&self.spill).unwrap() {
                for slot in std::fs::read_dir(spool.unwrap().path()).unwrap() {
                    let bytes = std::fs::read(slot.unwrap().path()).unwrap();
                    let slab = ColumnarSlab::from_frame_bytes(&bytes).unwrap();
                    for name in slab.column_names() {
                        if slab.is_raw_json(name) && !seen.0.iter().any(|n| n == name) {
                            seen.0.push(name.to_string());
                        }
                    }
                }
            }
        }
        seen.1 += 1;
        seen.2 += usize::from(sample.value().get_path("url").is_some());
        Ok(false)
    }

    fn fields_read(&self) -> FieldSet {
        match self.declared {
            true => FieldSet::of(["text"]),
            false => FieldSet::All,
        }
    }

    fn fields_written(&self) -> FieldSet {
        self.fields_read()
    }
}

/// A file run reads the fields no op touches as JSON text and stores it,
/// and every other column is stored as JSON text too (no value here
/// demotes one): behind the first barrier every column of the spool is a
/// raw JSON column. What an op touches decides what it sees, not how it is
/// stored: no op sees an inert field. One op that declares
/// [`FieldSet::All`] touches every field, so every sample carries its
/// every field, and the run writes the same bytes.
#[test]
fn a_recipe_with_an_undeclared_op_parses_every_field_and_writes_the_same_bytes() {
    let data = metadata_heavy_corpus(96);
    let input = tmp_dir("all-in");
    std::fs::create_dir_all(&input).unwrap();
    std::fs::write(input.join("corpus.jsonl"), to_jsonl(&data)).unwrap();
    let head = Recipe::new("all")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("document_deduplicator"))
        .build_ops(&builtin_registry())
        .unwrap();
    let (expected, _) = Executor::new(head.clone()).run(data.clone()).unwrap();
    let mut outputs = Vec::new();
    for declared in [true, false] {
        let dir = tmp_dir(&format!("all-{declared}"));
        let probe = Arc::new(SpoolProbe {
            spill: dir.join("spill"),
            declared,
            seen: Mutex::new((Vec::new(), 0, 0)),
        });
        let mut ops = head.clone();
        ops.push(Op::Mapper(probe.clone()));
        let out_dir = dir.join("out");
        Executor::new(ops)
            .with_options(ExecOptions {
                num_workers: 1,
                shard_size: Some(16),
                input: Some(format!("{}/*.jsonl", input.display())),
                output: Some(out_dir.clone()),
                spill_dir: Some(dir.join("spill")),
                ..ExecOptions::default()
            })
            .run_io()
            .unwrap();
        let (mut raw, samples, with_url) = probe.seen.lock().unwrap().clone();
        assert_eq!(samples, expected.len());
        raw.sort();
        assert_eq!(
            raw,
            [
                "crawl_ts",
                "docid",
                "headers",
                "meta",
                "render_log",
                "text",
                "url"
            ],
            "declared {declared}"
        );
        if declared {
            assert_eq!(with_url, 0, "an inert field reached an op");
        } else {
            assert_eq!(with_url, samples, "a FieldSet::All op missed a field");
        }
        let manifest = EgressManifest::load(&out_dir).unwrap();
        let output: String = manifest
            .parts
            .iter()
            .map(|p| std::fs::read_to_string(out_dir.join(&p.file)).unwrap())
            .collect();
        outputs.push(output);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(outputs[0], to_jsonl(&expected));
    assert_eq!(outputs[1], outputs[0]);
    let _ = std::fs::remove_dir_all(&input);
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
        let frame = encode_columnar_frame(&ds, Codec::Djz);
        let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
        let decoded = slab.decode().unwrap();
        prop_assert_eq!(&decoded, &ds);
        let again = encode_columnar_frame(&decoded, Codec::Djz);
        prop_assert_eq!(again, frame, "re-encode must be deterministic");
    }
}
