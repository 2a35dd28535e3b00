//! Failure-injection tests: operator errors must propagate cleanly through
//! serial and parallel execution; corrupt caches must degrade to fresh
//! execution instead of failing the run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{DjError, Filter, Mapper, Op, Result, Sample, SampleContext};
use data_juicer::exec::{executor_from_recipe, ExecOptions, Executor};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{
    encode_shard_frame, open_seal_record, seal_record, to_jsonl, CacheManager, CacheMode, Codec,
    Frame,
};
use data_juicer::synth::{web_corpus, WebNoise};

/// A mapper that fails on any sample containing a trigger token.
struct FailingMapper;

impl Mapper for FailingMapper {
    fn name(&self) -> &'static str {
        "failing_mapper"
    }
    fn process(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<bool> {
        if sample.text().contains("poison") {
            return Err(DjError::op("failing_mapper", "hit poison sample"));
        }
        Ok(false)
    }
}

/// A filter whose compute_stats fails past a sample-count threshold.
struct FailingFilter;

impl Filter for FailingFilter {
    fn name(&self) -> &'static str {
        "failing_filter"
    }
    fn compute_stats(&self, sample: &mut Sample, _ctx: &mut SampleContext) -> Result<()> {
        if sample.text().contains("poison") {
            return Err(DjError::op("failing_filter", "stats blew up"));
        }
        sample.set_stat("ok", 1.0);
        Ok(())
    }
    fn process(&self, _sample: &Sample) -> Result<bool> {
        Ok(true)
    }
    fn stats_key(&self) -> &'static str {
        "ok"
    }
}

fn poisoned_dataset() -> data_juicer::core::Dataset {
    let mut ds = web_corpus(1, 40, WebNoise::default());
    ds.push(Sample::from_text("this sample is poison for the pipeline"));
    ds.extend(web_corpus(2, 40, WebNoise::default()));
    ds
}

#[test]
fn mapper_error_propagates_serial_and_parallel() {
    for np in [1usize, 4] {
        let exec =
            Executor::new(vec![Op::Mapper(Arc::new(FailingMapper))]).with_options(ExecOptions {
                num_workers: np,
                op_fusion: false,
                shard_size: None,
                ..ExecOptions::default()
            });
        let err = exec.run(poisoned_dataset()).unwrap_err();
        assert!(err.to_string().contains("failing_mapper"), "np={np}: {err}");
    }
}

#[test]
fn mapper_error_propagates_through_spilled_execution() {
    // The streaming (out-of-core) driver must fail fast with the same
    // clean operator error as the in-memory paths — no panic, no hang.
    for np in [1usize, 4] {
        let exec =
            Executor::new(vec![Op::Mapper(Arc::new(FailingMapper))]).with_options(ExecOptions {
                num_workers: np,
                op_fusion: false,
                shard_size: Some(8),
                memory_budget: Some(1),
                spill_dir: None,
                ..ExecOptions::default()
            });
        let err = exec.run(poisoned_dataset()).unwrap_err();
        assert!(err.to_string().contains("failing_mapper"), "np={np}: {err}");
    }
}

#[test]
fn truncated_and_corrupted_spill_frames_are_clean_storage_errors() {
    use data_juicer::store::ShardSpool;
    let dir = std::env::temp_dir().join(format!("dj-it-spill-frames-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spool = ShardSpool::create(&dir, 2).unwrap();
    let shard = web_corpus(3, 20, WebNoise::default());
    spool.write_shard(0, &shard).unwrap();
    spool.write_shard(1, &shard).unwrap();
    let path0 = dir.join("shard-00000.djs");
    let path1 = dir.join("shard-00001.djs");

    // Truncation (a torn write / mid-stage kill): detected, not read short.
    let bytes = std::fs::read(&path0).unwrap();
    std::fs::write(&path0, &bytes[..bytes.len() - 7]).unwrap();
    let err = spool.read_shard(0).unwrap_err();
    assert!(matches!(err, DjError::Storage(_)), "{err}");
    assert!(err.to_string().contains("truncated"), "{err}");

    // Bit rot: the per-frame checksum catches silent corruption.
    let mut bytes = std::fs::read(&path1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path1, &bytes).unwrap();
    let err = spool.read_shard(1).unwrap_err();
    assert!(
        err.to_string().contains("checksum") || err.to_string().contains("truncated"),
        "{err}"
    );
    drop(spool);
    assert!(!dir.exists(), "spool cleans up even after errors");
}

#[test]
fn run_restarts_cleanly_after_simulated_mid_stage_kill() {
    // A killed run leaves spill debris behind (its Drop never ran). A
    // fresh run pointed at the same spill_dir must neither read the
    // partial frames nor trip over them — every run spools into its own
    // unique subdirectory.
    let dir = std::env::temp_dir().join(format!("dj-it-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let debris = dir.join("dj-spill-99999-0");
    std::fs::create_dir_all(&debris).unwrap();
    std::fs::write(debris.join("shard-00000.djs"), b"DJSF\x20partial garbage").unwrap();
    std::fs::write(debris.join("shard-00001.djs.tmp"), b"half a frame").unwrap();

    let registry = builtin_registry();
    let recipe = Recipe::new("restart")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("document_deduplicator"));
    let ops = recipe.build_ops(&registry).unwrap();
    let data = web_corpus(11, 60, WebNoise::default());
    let baseline = Executor::new(ops.clone());
    let (expected, _) = baseline.run(data.clone()).unwrap();

    let exec = Executor::new(ops.clone()).with_options(ExecOptions {
        num_workers: 2,
        op_fusion: false,
        shard_size: Some(8),
        memory_budget: Some(1),
        spill_dir: Some(dir.clone()),
        ..ExecOptions::default()
    });
    let (out, report) = exec.run(data.clone()).unwrap();
    assert!(report.spilled);
    assert_eq!(out, expected, "restart must not be polluted by debris");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filter_error_propagates_through_fused_plan() {
    let reg = builtin_registry();
    let word_filter = {
        let Op::Filter(f) = reg
            .build("word_num_filter", &data_juicer::core::OpParams::new())
            .unwrap()
        else {
            panic!("expected filter")
        };
        f
    };
    let ops = vec![Op::Filter(word_filter), Op::Filter(Arc::new(FailingFilter))];
    // Resident, and streamed from a spool.
    for memory_budget in [None, Some(1)] {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 2,
            op_fusion: true,
            shard_size: Some(8),
            memory_budget,
            ..ExecOptions::default()
        });
        let err = exec.run(poisoned_dataset()).unwrap_err();
        assert!(
            err.to_string().contains("failing_filter"),
            "{memory_budget:?}: {err}"
        );
    }
}

#[test]
fn corrupt_cache_entry_falls_back_to_fresh_execution() {
    let registry = builtin_registry();
    let recipe = Recipe::new("corrupt-cache")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(OpSpec::new("document_deduplicator"));
    let data = web_corpus(9, 50, WebNoise::default());

    let dir = std::env::temp_dir().join(format!("dj-it-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CacheManager::new(&dir, CacheMode::Cache);

    let exec = executor_from_recipe(&recipe, &registry, false).unwrap();
    let exec = exec.with_options(ExecOptions {
        num_workers: 1,
        op_fusion: false,
        shard_size: None,
        ..ExecOptions::default()
    });
    let (expected, _) = exec.run_with_cache(data.clone(), &cache).unwrap();

    // Corrupt every cache entry's seal record: the run saved one entry per
    // stage.
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(entries.len(), 2);
    for entry in entries {
        let p = entry.unwrap().path();
        std::fs::write(p.join("entry.seal"), b"corrupted garbage").unwrap();
    }

    // The run must still succeed (fresh execution) and match.
    let (out, report) = exec.run_with_cache(data, &cache).unwrap();
    assert_eq!(
        report.resumed_steps, 0,
        "corrupt cache must not be resumed from"
    );
    assert_eq!(
        out.iter().map(|s| s.text()).collect::<Vec<_>>(),
        expected.iter().map(|s| s.text()).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry directory's files by name, with their bytes.
type EntryFiles = BTreeMap<String, Vec<u8>>;

/// One kind of damage done to an entry's files.
type Damage = fn(&mut EntryFiles);

/// The files `entry` holds.
fn entry_files(entry: &Path) -> EntryFiles {
    std::fs::read_dir(entry)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// Make `entry` hold exactly `files`.
fn write_entry(entry: &Path, files: &EntryFiles) {
    let _ = std::fs::remove_dir_all(entry);
    std::fs::create_dir_all(entry).unwrap();
    for (name, bytes) in files {
        std::fs::write(entry.join(name), bytes).unwrap();
    }
}

/// Rewrite the seal record among `files` through `edit` of its slots.
fn reseal(files: &mut EntryFiles, edit: impl FnOnce(&mut Vec<(u64, u64)>)) {
    let mut slots = open_seal_record(&files["entry.seal"]).unwrap();
    edit(&mut slots);
    files.insert("entry.seal".into(), seal_record(&slots));
}

/// A damaged entry — the seal, a slot, or the two disagreeing — is never
/// resumed: the run equals a fresh one byte for byte, and its save
/// replaces the entry whole. Neither is the debris of a killed save, a
/// `<key>.tmp/` directory, which no count includes and the next save of
/// its key clears, nor a flat `<key>.djc` file of an earlier release,
/// which stays as it was. Resident and spilled.
#[test]
fn damaged_entries_and_save_debris_are_misses_the_next_save_replaces() {
    let registry = builtin_registry();
    let prefix =
        Recipe::new("damaged-entries").then(OpSpec::new("whitespace_normalization_mapper"));
    let full = prefix.clone().then(OpSpec::new("document_deduplicator"));
    let data = web_corpus(19, 60, WebNoise::default());
    let (fresh, _) = Executor::new(full.build_ops(&registry).unwrap())
        .run(data.clone())
        .unwrap();
    let fresh = to_jsonl(&fresh);
    for memory_budget in [None, Some(1)] {
        let tag = format!("budget {memory_budget:?}");
        let dir = std::env::temp_dir().join(format!(
            "dj-it-damaged-entries-{}-{}",
            memory_budget.is_some(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheManager::new(&dir, CacheMode::Cache);
        let run = |recipe: &Recipe| {
            let exec = executor_from_recipe(recipe, &registry, false).unwrap();
            let exec = exec.with_options(ExecOptions {
                num_workers: 2,
                op_fusion: false,
                shard_size: Some(8),
                memory_budget,
                ..ExecOptions::default()
            });
            let (out, report) = exec.run_with_cache(data.clone(), &cache).unwrap();
            (to_jsonl(&out), report)
        };
        // The prefix's run saves the first stage's entry; the full run
        // resumes it and saves the last stage's, the one a re-run resumes.
        run(&prefix);
        let first: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        let (out, report) = run(&full);
        assert_eq!(
            (report.resumed_steps, out.as_str()),
            (1, fresh.as_str()),
            "{tag}"
        );
        let mut last: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        last.retain(|p| !first.contains(p));
        let [last] = &last[..] else {
            panic!("{tag}: the full run added {last:?}")
        };
        let good = entry_files(last);
        assert!(good.len() > 2, "{tag}: one slot is too few to damage one");
        assert!(good.contains_key("shard-00000.djs"), "{tag}");
        let damage: [(&str, Damage); 6] = [
            ("a flipped bit in the seal", |files| {
                let seal = files.get_mut("entry.seal").unwrap();
                let last = seal.len() - 1;
                seal[last] ^= 0x01;
            }),
            ("a missing slot file", |files| {
                files.remove("shard-00000.djs");
            }),
            ("an extra slot file", |files| {
                let extra = files["shard-00000.djs"].clone();
                files.insert(format!("shard-{:05}.djs", files.len() - 1), extra);
            }),
            ("a slot longer than its seal says", |files| {
                files.get_mut("shard-00000.djs").unwrap().push(0);
            }),
            (
                "a slot storing other than its seal's sample count",
                |files| {
                    reseal(files, |slots| slots[0].1 += 1);
                },
            ),
            ("a row frame in a slot, under a seal that agrees", |files| {
                let frame = Frame::parse(&files["shard-00000.djs"]).unwrap();
                let row = encode_shard_frame(&frame.decode(None, None).unwrap().0, Codec::Djz);
                let len = row.len() as u64;
                files.insert("shard-00000.djs".into(), row);
                reseal(files, |slots| slots[0].0 = len);
            }),
        ];
        for (what, damage) in damage {
            let mut files = good.clone();
            damage(&mut files);
            assert_ne!(files, good, "{tag}: {what}");
            write_entry(last, &files);
            let (out, report) = run(&full);
            assert_eq!(report.resumed_steps, 0, "{tag}: resumed {what}");
            assert_eq!(out, fresh, "{tag}: {what}");
            assert_eq!(entry_files(last), good, "{tag}: {what} was not replaced");
        }

        // A killed save: the last entry, whole, at `<key>.tmp/` only.
        let tmp = last.with_extension("tmp");
        std::fs::rename(last, &tmp).unwrap();
        let [stage0] = &first[..] else {
            panic!("{tag}: the prefix run saved {first:?}")
        };
        let stage0_bytes: usize = entry_files(stage0).values().map(Vec::len).sum();
        assert_eq!(cache.entry_count().unwrap(), 1, "{tag}");
        assert_eq!(cache.disk_usage().unwrap(), stage0_bytes as u64, "{tag}");
        let (out, report) = run(&full);
        assert_eq!(report.resumed_steps, 1, "{tag}: resumed the debris");
        assert_eq!(out, fresh, "{tag}");
        assert!(!tmp.exists(), "{tag}: the save left its key's debris");
        assert_eq!(entry_files(last), good, "{tag}");

        // An earlier release's flat entry file for the same stage.
        let flat = last.with_extension("djc");
        let frames: Vec<u8> = good
            .iter()
            .filter(|(name, _)| name.ends_with(".djs"))
            .flat_map(|(_, bytes)| bytes.clone())
            .collect();
        std::fs::write(&flat, &frames).unwrap();
        std::fs::remove_dir_all(last).unwrap();
        let (out, report) = run(&full);
        assert_eq!(report.resumed_steps, 1, "{tag}: resumed a flat entry");
        assert_eq!(out, fresh, "{tag}");
        assert_eq!(std::fs::read(&flat).unwrap(), frames, "{tag}");
        assert_eq!(cache.entry_count().unwrap(), 2, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unknown_op_in_recipe_is_a_config_error() {
    let registry = builtin_registry();
    let recipe = Recipe::new("bad").then(OpSpec::new("nonexistent_op"));
    let err = recipe.build_ops(&registry).unwrap_err();
    assert!(matches!(err, DjError::Config(_)), "{err}");
    assert_eq!(
        recipe.validate(&registry),
        vec!["nonexistent_op".to_string()]
    );
}

#[test]
fn a_misspelt_op_parameter_is_a_config_error() {
    let registry = builtin_registry();
    let recipe =
        Recipe::new("typo").then(OpSpec::new("text_length_filter").with("min_lenght", 40.0));
    let err = recipe.build_ops(&registry).unwrap_err();
    assert!(matches!(err, DjError::Config(_)), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("`text_length_filter`") && msg.contains("`min_lenght`"),
        "{msg}"
    );
    // A recipe's text key is a default `field`, not a given one: an op that
    // reads no field still builds under it.
    let yaml = "text_key: content\nprocess:\n  - suffix_filter:\n  - text_length_filter:\n";
    let ops = Recipe::from_yaml(yaml)
        .unwrap()
        .build_ops(&registry)
        .unwrap();
    assert_eq!(ops.len(), 2);
}

#[test]
fn filter_process_before_compute_stats_is_an_op_error() {
    // The executor always computes stats first; calling process directly on
    // an unprepared sample must produce a descriptive error, not a panic.
    let reg = builtin_registry();
    let Op::Filter(f) = reg
        .build("perplexity_filter", &data_juicer::core::OpParams::new())
        .unwrap()
    else {
        panic!("expected filter")
    };
    let err = f.process(&Sample::from_text("anything")).unwrap_err();
    assert!(err.to_string().contains("missing stat"), "{err}");
}
