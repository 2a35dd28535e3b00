//! One measurement per decision: a filter decides on the stat it measured
//! itself, never on one that something else recorded under the same name —
//! another field, other params, an analyzer probe, an input line. Each case
//! runs resident, spilled and file → file, and a fused plan errors on the
//! same records as the unfused one.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use data_juicer::analyze::Analyzer;
use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::{
    parse_json, ContextNeeds, Dataset, DjError, Filter, OnError, Op, Result, Sample, SampleContext,
};
use data_juicer::exec::{EgressManifest, ExecOptions, Executor, RunReport};
use data_juicer::ops::builtin_registry;
use data_juicer::store::to_jsonl;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Resident,
    Spilled,
    File,
}

const SHAPES: [Shape; 3] = [Shape::Resident, Shape::Spilled, Shape::File];

/// A scratch directory of its own, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dj-one-measure-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("in")).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Run `ops` over `data` in `shape`; the output comes back as JSONL.
fn run(ops: &[Op], data: &Dataset, shape: Shape, options: ExecOptions) -> (String, RunReport) {
    let scratch = Scratch::new();
    let mut options = ExecOptions {
        num_workers: 2,
        shard_size: Some(2),
        memory_budget: (shape == Shape::Spilled).then_some(1),
        ..options
    };
    let out_dir = scratch.0.join("out");
    if shape == Shape::File {
        fs::write(scratch.0.join("in/00.jsonl"), to_jsonl(data)).unwrap();
        options.input = Some(format!("{}/in/*.jsonl", scratch.0.display()));
        options.output = Some(out_dir.clone());
    }
    let exec = Executor::new(ops.to_vec()).with_options(options);
    if shape != Shape::File {
        let (out, report) = exec.run(data.clone()).unwrap();
        assert_eq!(report.spilled, shape == Shape::Spilled, "{shape:?}");
        return (to_jsonl(&out), report);
    }
    let (_, report) = exec.run_io().unwrap();
    let manifest = EgressManifest::load(&out_dir).unwrap();
    let written = manifest
        .parts
        .iter()
        .map(|p| fs::read_to_string(out_dir.join(&p.file)).unwrap())
        .collect();
    (written, report)
}

fn ops(specs: &[OpSpec]) -> Vec<Op> {
    specs
        .iter()
        .fold(Recipe::new("one-measurement"), |r, s| r.then(s.clone()))
        .build_ops(&builtin_registry())
        .unwrap()
}

/// `first` then `second` gives exactly `second`'s output, in every shape,
/// and `second` drops something, so the chain has a decision to get wrong.
fn assert_second_decides(first: OpSpec, second: OpSpec, data: &Dataset) {
    let chain = ops(&[first, second.clone()]);
    let alone = ops(&[second]);
    for shape in SHAPES {
        let (expected, report) = run(&alone, data, shape, ExecOptions::default());
        assert!(
            report.final_samples < data.len(),
            "{shape:?}: nothing to drop"
        );
        let (got, _) = run(&chain, data, shape, ExecOptions::default());
        assert_eq!(got, expected, "{shape:?}");
    }
}

fn sample(text: &str, field: &str, other: &str) -> Sample {
    let mut s = Sample::from_text(text);
    s.set_text_at(field, other).unwrap();
    s
}

#[test]
fn a_length_measured_on_another_field_does_not_decide() {
    let data = Dataset::from_samples(vec![
        sample("tiny", "a", "a long enough other field"),
        sample("a text long enough to keep", "a", "x"),
        sample("short", "a", "another long other field"),
        sample("one more text that is kept", "a", "y"),
    ]);
    assert_second_decides(
        OpSpec::new("text_length_filter")
            .with("field", "a")
            .with("min_len", 0.0),
        OpSpec::new("text_length_filter").with("min_len", 10.0),
        &data,
    );
}

#[test]
fn a_repetition_ratio_at_another_rep_len_does_not_decide() {
    let data = Dataset::from_texts([
        "buy now buy now buy now buy now and more",
        "all words in this sentence differ completely from each other today",
        "sale sale sale sale sale sale sale sale sale",
        "a calm river runs past the old mill at dawn",
    ]);
    assert_second_decides(
        OpSpec::new("word_repetition_filter")
            .with("rep_len", 10i64)
            .with("max_ratio", 1.0),
        OpSpec::new("word_repetition_filter")
            .with("rep_len", 3i64)
            .with("max_ratio", 0.1),
        &data,
    );
}

/// `(text, stats.word_rep_ratio)` of every output line.
fn texts_and_ratios(jsonl: &str) -> Vec<(String, Option<f64>)> {
    jsonl
        .lines()
        .map(|line| {
            let s = Sample::from_value(parse_json(line).unwrap()).unwrap();
            (s.text().to_string(), s.stat("word_rep_ratio"))
        })
        .collect()
}

#[test]
fn a_probe_does_not_decide_a_later_filter() {
    // Every 5-gram differs, every 3-gram "red fox runs" repeats: the probe
    // records `word_rep_ratio` 0 at rep_len 5, the filter measures > 0.1
    // at rep_len 3.
    let raw = Dataset::from_texts([
        "red fox runs one red fox runs two red fox runs three red fox runs four",
        "a calm river runs past the old mill at dawn",
        "blue jay sings one blue jay sings two blue jay sings three",
        "every word here is another one entirely",
    ]);
    let mut probed = raw.clone();
    let probe = Analyzer::new().probe(&mut probed);
    assert_eq!(probe.columns["word_rep_ratio"], vec![0.0; 4]);
    let filter = ops(&[OpSpec::new("word_repetition_filter")
        .with("rep_len", 3i64)
        .with("max_ratio", 0.1)]);
    for shape in SHAPES {
        let (expected, report) = run(&filter, &raw, shape, ExecOptions::default());
        assert_eq!(report.final_samples, 2, "{shape:?}");
        let (got, _) = run(&filter, &probed, shape, ExecOptions::default());
        assert_eq!(
            texts_and_ratios(&got),
            texts_and_ratios(&expected),
            "{shape:?}"
        );
    }
}

#[test]
fn a_stat_an_input_line_carries_is_measured_again() {
    let line = |text: &str, len: f64| {
        let mut s = Sample::from_text(text);
        s.set_stat("text_len", len);
        s
    };
    let carried = Dataset::from_samples(vec![
        line("tiny", 500.0),
        line("a text long enough to keep", 1.0),
        line("short", 80.0),
    ]);
    let bare = Dataset::from_texts(carried.iter().map(|s| s.text().to_string()));
    let filter = ops(&[OpSpec::new("text_length_filter").with("min_len", 10.0)]);
    for shape in SHAPES {
        let (expected, report) = run(&filter, &bare, shape, ExecOptions::default());
        assert_eq!(report.final_samples, 1, "{shape:?}");
        let (got, _) = run(&filter, &carried, shape, ExecOptions::default());
        assert_eq!(got, expected, "{shape:?}");
    }
}

/// Fails to measure any sample that holds "poison"; keeps every other one.
struct PoisonedStat;

impl Filter for PoisonedStat {
    fn name(&self) -> &'static str {
        "poisoned_stat_filter"
    }
    fn compute_stats(&self, sample: &mut Sample, ctx: &mut SampleContext) -> Result<()> {
        if sample.text().contains("poison") {
            return Err(DjError::op(self.name(), "cannot measure"));
        }
        let words = ctx.words(sample.text()).len() as f64;
        sample.set_stat("poisoned_words", words);
        Ok(())
    }
    fn process(&self, _sample: &Sample) -> Result<bool> {
        Ok(true)
    }
    fn stats_key(&self) -> &'static str {
        "poisoned_words"
    }
    fn context_needs(&self) -> ContextNeeds {
        ContextNeeds::WORDS
    }
}

#[test]
fn a_fused_plan_errors_on_the_records_the_unfused_plan_errors_on() {
    // Both filters read words, so the planner fuses them. The short poison
    // sample is dropped by `word_num_filter` before the second filter would
    // measure it; the long one reaches it and is skipped.
    let mut plan = ops(&[OpSpec::new("word_num_filter").with("min_num", 5.0)]);
    plan.push(Op::Filter(Arc::new(PoisonedStat)));
    let data = Dataset::from_texts([
        "poison pill",
        "a clean sample with enough words in it",
        "this long sample carries poison past the first filter",
        "too short",
        "another clean sample with plenty of words",
    ]);
    for shape in SHAPES {
        let with = |op_fusion: bool| ExecOptions {
            op_fusion,
            on_error: OnError::Skip,
            ..ExecOptions::default()
        };
        let (unfused, u) = run(&plan, &data, shape, with(false));
        let (fused, f) = run(&plan, &data, shape, with(true));
        assert_eq!(u.records_skipped, 1, "{shape:?}");
        assert_eq!(f.records_skipped, u.records_skipped, "{shape:?}");
        assert_eq!(fused, unfused, "{shape:?}");
        assert_eq!(f.final_samples, 2, "{shape:?}");
    }
}

#[test]
fn a_range_over_a_recorded_stat_decides_after_the_filter_that_records_it() {
    // `stats_range_filter` decides on `word_rep_ratio`, which the filter
    // before it records: no plan may run the range first, where the stat
    // is still missing and every sample would be kept.
    let plan = ops(&[
        OpSpec::new("word_repetition_filter")
            .with("rep_len", 2i64)
            .with("max_ratio", 1.0),
        OpSpec::new("stats_range_filter")
            .with("key", "word_rep_ratio")
            .with("min", 0.0)
            .with("max", 0.1),
    ]);
    let data = Dataset::from_texts([
        "all words in this sentence differ completely",
        "buy now buy now buy now buy now",
        "sale sale sale sale sale sale",
    ]);
    for shape in SHAPES {
        let with = |op_fusion: bool, adaptive: bool| ExecOptions {
            op_fusion,
            adaptive,
            ..ExecOptions::default()
        };
        let (unfused, report) = run(&plan, &data, shape, with(false, false));
        assert_eq!(report.final_samples, 1, "{shape:?}");
        for (op_fusion, adaptive) in [(true, false), (true, true), (false, true)] {
            let (got, _) = run(&plan, &data, shape, with(op_fusion, adaptive));
            assert_eq!(
                got, unfused,
                "{shape:?} fusion {op_fusion} adaptive {adaptive}"
            );
        }
    }
}
