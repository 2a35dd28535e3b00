//! Record-level error policy, end to end: a quarantine run over a fixture
//! with malformed ingest records *and* per-sample op failures must
//! complete, count both error classes, and preserve every dropped record
//! in a checksummed sidecar next to the egress manifest — while a tight
//! `max_error_ratio` budget turns the same fixture into a clean,
//! deterministic failure. A file-to-file run always spools, so every case
//! runs over both spool formats: row and columnar frames.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use data_juicer::core::{DjError, OnError, Op, Result, Sample, SampleContext};
use data_juicer::exec::{executor_from_recipe, ExecOptions, Executor, OutputFormat};
use data_juicer::io::{read_quarantine, EgressManifest, QUARANTINE_FILE};
use data_juicer::ops::builtin_registry;

/// A mapper that rejects any sample containing a trigger token.
struct PoisonMapper;

impl data_juicer::core::Mapper for PoisonMapper {
    fn name(&self) -> &'static str {
        "poison_mapper"
    }
    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        if sample.text().contains("poison") {
            return Err(DjError::op("poison_mapper", "rejected poison sample"));
        }
        Ok(false)
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dj-errpol-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 20 good samples, 2 malformed ingest lines, 2 poison samples.
fn write_fixture(dir: &Path) -> PathBuf {
    let path = dir.join("mixed.jsonl");
    let mut lines = Vec::new();
    for i in 0..10 {
        lines.push(format!("{{\"text\":\"good sample {i}\"}}"));
    }
    lines.push("{not json at all".to_string());
    lines.push("{\"text\":\"this one is poison\"}".to_string());
    for i in 10..20 {
        lines.push(format!("{{\"text\":\"good sample {i}\"}}"));
    }
    lines.push("[1,2,3]".to_string()); // parses, but not a record
    lines.push("{\"text\":\"more poison here\"}".to_string());
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    path
}

fn exec_with(policy: OnError, ratio: f64, columnar: bool, input: &Path, output: &Path) -> Executor {
    Executor::new(vec![Op::Mapper(Arc::new(PoisonMapper))]).with_options(ExecOptions {
        num_workers: 2,
        shard_size: Some(4),
        input: Some(input.display().to_string()),
        output: Some(output.to_path_buf()),
        output_format: OutputFormat::Jsonl,
        on_error: policy,
        max_error_ratio: ratio,
        columnar,
        ..ExecOptions::default()
    })
}

#[test]
fn quarantine_run_completes_and_sidecar_round_trips() {
    for columnar in [false, true] {
        let dir = fresh_dir(&format!("quarantine-{columnar}"));
        let input = write_fixture(&dir);
        let out = dir.join("out");

        let (_, report) = exec_with(OnError::Quarantine, 0.5, columnar, &input, &out)
            .run_io()
            .unwrap();

        // 24 records seen (20 good + 2 malformed + 2 poison), 4 quarantined.
        assert_eq!(report.records_quarantined, 4, "{report:?}");
        assert_eq!(report.records_skipped, 0);
        assert!((report.error_ratio - 4.0 / 24.0).abs() < 1e-9, "{report:?}");
        assert_eq!(report.final_samples, 20);
        assert_eq!(report.columnar, columnar);

        // The committed manifest accounts for exactly the surviving samples.
        let manifest = EgressManifest::load(&out).unwrap();
        assert_eq!(manifest.total_samples, 20);

        // The sidecar sits next to the manifest, every entry checksummed,
        // with provenance: `path:line` for ingest casualties, `op@shard-N`
        // for op casualties — and the raw record preserved.
        let entries = read_quarantine(&out.join(QUARANTINE_FILE)).unwrap();
        assert_eq!(entries.len(), 4);
        let sources: Vec<&str> = entries.iter().map(|e| e.source.as_str()).collect();
        assert!(
            sources
                .iter()
                .filter(|s| s.contains("mixed.jsonl:"))
                .count()
                == 2,
            "{sources:?}"
        );
        assert!(
            sources
                .iter()
                .filter(|s| s.starts_with("poison_mapper@shard-"))
                .count()
                == 2,
            "{sources:?}"
        );
        let raws: Vec<String> = entries.iter().map(|e| e.record.to_string()).collect();
        assert!(
            raws.iter().any(|r| r.contains("not json at all")),
            "raw malformed line preserved: {raws:?}"
        );
        assert!(
            raws.iter().any(|r| r.contains("more poison here")),
            "poison sample preserved: {raws:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn skip_policy_drops_without_a_sidecar() {
    for columnar in [false, true] {
        let dir = fresh_dir(&format!("skip-{columnar}"));
        let input = write_fixture(&dir);
        let out = dir.join("out");

        let (_, report) = exec_with(OnError::Skip, 0.5, columnar, &input, &out)
            .run_io()
            .unwrap();
        assert_eq!(report.records_skipped, 4);
        assert_eq!(report.records_quarantined, 0);
        assert_eq!(report.final_samples, 20);
        assert!(
            !out.join(QUARANTINE_FILE).exists(),
            "skip policy writes no sidecar"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A line nested 200 000 levels deep must not reach the parser's stack
/// limit — an abort no policy can catch. It is a malformed record like any
/// other: skipped, or quarantined with its `path:line`.
#[test]
fn a_nesting_bomb_is_a_malformed_record_the_policy_handles() {
    let bomb = format!(
        "{{\"text\": {}{}}}",
        "[".repeat(200_000),
        "]".repeat(200_000)
    );
    for policy in [OnError::Skip, OnError::Quarantine] {
        let dir = fresh_dir(&format!("bomb-{}", policy.name()));
        let input = dir.join("deep.jsonl");
        let good = "{\"text\":\"a good sample\"}";
        std::fs::write(&input, format!("{good}\n{bomb}\n{good}\n")).unwrap();
        let out = dir.join("out");
        let (_, report) = exec_with(policy, 1.0, false, &input, &out)
            .run_io()
            .unwrap();
        assert_eq!(report.final_samples, 2);
        assert_eq!(
            report.records_skipped + report.records_quarantined,
            1,
            "{report:?}"
        );
        if policy == OnError::Quarantine {
            let entries = read_quarantine(&out.join(QUARANTINE_FILE)).unwrap();
            assert_eq!(entries.len(), 1);
            assert!(entries[0].source.ends_with("deep.jsonl:2"), "{entries:?}");
            assert!(entries[0].error.contains("nested deeper than 128"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn exceeding_the_error_budget_fails_cleanly_without_a_manifest() {
    for columnar in [false, true] {
        let dir = fresh_dir(&format!("budget-{columnar}"));
        let input = write_fixture(&dir);
        let out = dir.join("out");

        // 4 bad of 24 ≈ 16.7% > 5%: the run must fail with a typed error
        // naming the budget, and must not seal a manifest.
        let err = exec_with(OnError::Quarantine, 0.05, columnar, &input, &out)
            .run_io()
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("error-policy"), "{msg}");
        assert!(msg.contains("0.05") || msg.contains("ratio"), "{msg}");
        assert!(
            EgressManifest::load(&out).is_err(),
            "budget overrun must not commit a manifest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fail_policy_stops_on_the_first_malformed_record() {
    for columnar in [false, true] {
        let dir = fresh_dir(&format!("fail-{columnar}"));
        let input = write_fixture(&dir);
        let out = dir.join("out");
        let err = exec_with(OnError::Fail, 1.0, columnar, &input, &out)
            .run_io()
            .unwrap_err();
        assert!(matches!(err, DjError::Parse(_)), "{err}");
        assert!(err.to_string().contains("mixed.jsonl:11"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recipe_wires_the_policy_through_to_the_executor() {
    use data_juicer::config::{OpSpec, Recipe};
    let recipe = Recipe::new("wired")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .with_on_error("quarantine")
        .with_max_error_ratio(0.25);
    let exec = executor_from_recipe(&recipe, &builtin_registry(), true).unwrap();
    assert_eq!(exec.options().on_error, OnError::Quarantine);
    assert!((exec.options().max_error_ratio - 0.25).abs() < 1e-12);

    // Unknown policy names are hard config errors.
    let bad = Recipe::new("bad").with_on_error("explode");
    let round_trip = Recipe::from_value(&bad.to_value());
    assert!(round_trip.is_err(), "{round_trip:?}");
}
