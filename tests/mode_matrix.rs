//! The mode matrix against a naive oracle: every execution shape the engine
//! has — in-memory, forced spill, file→file — × worker count × adaptive
//! planning × direct call or service-runtime job must produce output
//! byte-equal to a
//! deliberately simple reference (apply the ops in recipe order, sample by
//! sample, unfused, with a global dedup through `keep_mask`), and must
//! agree with each other on every per-op `samples_in / samples_out /
//! removed`.
//!
//! This file is how the test suite picks execution shapes: in process,
//! through `ExecOptions` and a test-local `Runtime` — there is no
//! environment toggle for a shape. The random recipes always hold ≥ 1
//! barrier (leading barriers, adjacent barriers with an empty stage between
//! them and zero-sample corpora included) and run over `dj-synth` corpora
//! with metadata columns no op reads; one more case runs every registered
//! op, alone, through every shape.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use data_juicer::config::{recipes, OpSpec, Recipe};
use data_juicer::core::{Dataset, Op, Sample, SampleContext, Value};
use data_juicer::exec::{
    executor_from_recipe, EgressManifest, ExecOptions, Executor, RunReport, Runtime, RuntimeConfig,
};
use data_juicer::ops::builtin_registry;
use data_juicer::store::{
    encode_shard_frame, to_jsonl, CacheManager, CacheMode, Codec, Frame, COLUMNAR_FRAME_MAGIC,
    SHARD_FRAME_MAGIC,
};
use data_juicer::synth::{
    arxiv_corpus, chinese_corpus, code_corpus, dialog_corpus, web_corpus, wiki_corpus, WebNoise,
};

// ---- the oracle -------------------------------------------------------

/// The paper's semantics, nothing else: one op at a time over the whole
/// dataset, in recipe order; a filter computes its stats then decides; a
/// deduplicator hashes every sample and keeps what its dataset-level mask
/// keeps. No shards, no fusion, no reordering, no threads.
fn oracle(ops: &[Op], data: Dataset) -> Dataset {
    let mut samples: Vec<Sample> = data.into_samples();
    let mut ctx = SampleContext::new();
    for op in ops {
        match op {
            Op::Mapper(m) => {
                for s in &mut samples {
                    ctx.invalidate();
                    m.process(s, &mut ctx).unwrap();
                    ctx.clear();
                }
            }
            Op::Filter(f) => {
                samples.retain_mut(|s| {
                    ctx.invalidate();
                    f.compute_stats(s, &mut ctx).unwrap();
                    ctx.clear();
                    f.process(s).unwrap()
                });
            }
            Op::Deduplicator(d) => {
                let hashes: Vec<Value> = samples
                    .iter()
                    .map(|s| {
                        ctx.invalidate();
                        let h = d.compute_hash(s, &mut ctx).unwrap();
                        ctx.clear();
                        h
                    })
                    .collect();
                let mut keep = d.keep_mask(samples.len(), &hashes).unwrap().into_iter();
                samples.retain(|_| keep.next().unwrap());
            }
        }
    }
    Dataset::from_samples(samples)
}

// ---- the modes --------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    InMemory,
    Spill,
    File,
}

const SHAPES: [Shape; 3] = [Shape::InMemory, Shape::Spill, Shape::File];

#[derive(Debug, Clone, Copy)]
struct Mode {
    shape: Shape,
    np: usize,
    adaptive: bool,
    /// Submitted as a job to the test's [`runtime`] (`submit` /
    /// `submit_io`, then `wait`) instead of calling the executor.
    runtime: bool,
    /// A resident input (in-memory or spilled) submitted as a runtime job
    /// with `output` set: it writes parts, as the file shape does.
    egress: bool,
}

/// One service runtime for the whole binary, the way `dj serve` holds one:
/// the `runtime` modes of every test share it.
fn runtime() -> &'static Runtime {
    static RUNTIME: OnceLock<Runtime> = OnceLock::new();
    RUNTIME.get_or_init(|| Runtime::new(RuntimeConfig::default()))
}

impl Mode {
    /// A shape with everything else at its plainest: two workers, static
    /// plan, a direct call.
    fn plain(shape: Shape) -> Mode {
        Mode {
            shape,
            np: 2,
            adaptive: false,
            runtime: false,
            egress: false,
        }
    }

    /// Every shape × np {1, 3} × adaptive, with the runtime dimension laid
    /// across the last two pairwise: each of its values meets each np and
    /// each adaptive value, in every shape, without doubling the matrix.
    fn all() -> Vec<Mode> {
        let mut modes = Vec::new();
        for shape in SHAPES {
            for np in [1, 3] {
                for adaptive in [false, true] {
                    modes.push(Mode {
                        np,
                        adaptive,
                        runtime: adaptive == (np == 3),
                        ..Mode::plain(shape)
                    });
                }
            }
        }
        modes
    }

    /// The ways out of a barrier: every shape × np, and each resident
    /// shape again as a runtime job with `output` set, which writes parts
    /// as the file shape does.
    fn ways_out() -> Vec<Mode> {
        let mut modes = Vec::new();
        for shape in SHAPES {
            for np in [1, 3] {
                let base = Mode {
                    np,
                    ..Mode::plain(shape)
                };
                modes.push(base);
                if shape != Shape::File {
                    modes.push(Mode {
                        egress: true,
                        runtime: true,
                        ..base
                    });
                }
            }
        }
        modes
    }

    /// The options that *are* this mode.
    fn options(&self, shard_size: usize) -> ExecOptions {
        ExecOptions {
            num_workers: self.np,
            shard_size: Some(shard_size),
            memory_budget: (self.shape == Shape::Spill).then_some(1),
            adaptive: self.adaptive,
            ..ExecOptions::default()
        }
    }

    /// Run the mode; the output comes back as JSONL bytes (the parts a
    /// writing mode wrote, or the serialization of what a resident mode
    /// returned).
    fn run(&self, ops: &[Op], case: &Case) -> (String, RunReport) {
        let mut options = self.options(case.shard_size);
        let file = self.shape == Shape::File;
        let writes = file || self.egress;
        assert!(
            !self.egress || self.runtime,
            "{self:?}: `run` refuses an output"
        );
        let out_dir = case.dir.join("out");
        if writes {
            let _ = fs::remove_dir_all(&out_dir);
            options.output = Some(out_dir.clone());
        }
        if file {
            options.input = Some(format!("{}/in/*.jsonl", case.dir.display()));
        }
        let exec = Executor::new(ops.to_vec()).with_options(options);
        let (out, report) = if !self.runtime {
            match file {
                false => exec.run(case.data.clone()).map(|(d, r)| (Some(d), r)),
                true => exec.run_io(),
            }
            .unwrap()
        } else {
            let job = match file {
                false => runtime().submit(exec, case.data.clone()),
                true => runtime().submit_io(exec),
            };
            let ctl = job.control();
            let out = job.wait().unwrap();
            assert_eq!(ctl.attempts(), 1, "{self:?}: not run as a runtime job");
            (out.dataset, out.report)
        };
        if !file {
            let spilled = self.shape != Shape::InMemory && !case.data.is_empty();
            assert_eq!(report.spilled, spilled, "{self:?}: wrong shape ran");
        }
        match out {
            Some(out) => {
                assert!(!writes, "{self:?}: returned a dataset, wrote nothing");
                (to_jsonl(&out), report)
            }
            None => {
                assert!(writes, "{self:?}: no dataset returned");
                let manifest = EgressManifest::load(&out_dir).unwrap();
                let written: String = manifest
                    .parts
                    .iter()
                    .map(|p| fs::read_to_string(out_dir.join(&p.file)).unwrap())
                    .collect();
                (written, report)
            }
        }
    }
}

/// `(name, samples_in, samples_out, removed)` per reported op.
fn funnel(report: &RunReport) -> Vec<(String, usize, usize, usize)> {
    report
        .ops
        .iter()
        .map(|r| (r.name.clone(), r.samples_in, r.samples_out, r.removed))
        .collect()
}

// ---- cases ------------------------------------------------------------

struct Case {
    data: Dataset,
    shard_size: usize,
    /// Scratch directory holding `in/*.jsonl` (the corpus, in three files).
    dir: PathBuf,
}

impl Case {
    fn new(tag: &str, data: Dataset, shard_size: usize) -> Case {
        let dir = std::env::temp_dir().join(format!("dj-mode-matrix-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("in")).unwrap();
        for (i, shard) in data.clone().into_shards(3).iter().enumerate() {
            fs::write(dir.join(format!("in/{i:02}.jsonl")), to_jsonl(shard)).unwrap();
        }
        Case {
            data,
            shard_size,
            dir,
        }
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A `dj-synth` corpus with cross-shard duplicates (exact and
/// whitespace-variant) and provenance columns no op ever reads, so the
/// spilled modes have something to splice through undecoded.
fn corpus(seed: u64, n: usize) -> Dataset {
    let mut ds = match seed % 3 {
        0 => web_corpus(seed, n, WebNoise::default()),
        1 => wiki_corpus(seed, n),
        _ => code_corpus(seed, n),
    };
    let copies: Vec<Sample> = ds.iter().step_by(4).cloned().collect();
    for (k, mut s) in copies.into_iter().enumerate() {
        if k % 2 == 1 {
            let spaced = s.text().replace(' ', "  ");
            s.set_text(spaced);
        }
        ds.push(s);
    }
    for (i, s) in ds.samples_mut().iter_mut().enumerate() {
        let root = s.value_mut();
        root.set_path("url", Value::Str(format!("https://example.org/{i}")))
            .unwrap();
        root.set_path("crawl.ts", Value::Int(1_700_000_000 + i as i64))
            .unwrap();
        if i % 3 == 0 {
            root.set_path("headers", Value::Str("server: nginx; ".repeat(6)))
                .unwrap();
        }
    }
    ds
}

/// The ops recipes are drawn from: mappers, filters that drop a real share
/// of a synthetic corpus, and all four deduplicators.
fn pool() -> Vec<OpSpec> {
    vec![
        OpSpec::new("whitespace_normalization_mapper"),
        OpSpec::new("clean_links_mapper"),
        OpSpec::new("lowercase_mapper"),
        OpSpec::new("text_length_filter")
            .with("min_len", 60.0)
            .with("max_len", 1e9),
        OpSpec::new("word_num_filter")
            .with("min_num", 12.0)
            .with("max_num", 1e9),
        OpSpec::new("alphanumeric_ratio_filter")
            .with("min_ratio", 0.6)
            .with("max_ratio", 1.0),
        OpSpec::new("special_characters_filter")
            .with("min_ratio", 0.0)
            .with("max_ratio", 0.25),
        OpSpec::new("word_repetition_filter")
            .with("rep_len", 3i64)
            .with("min_ratio", 0.0)
            .with("max_ratio", 0.4),
        OpSpec::new("document_deduplicator"),
        OpSpec::new("document_minhash_deduplicator"),
        OpSpec::new("document_simhash_deduplicator"),
        OpSpec::new("paragraph_deduplicator"),
    ]
}

const FIRST_DEDUP: usize = 8;

fn recipe(picks: &[usize]) -> Recipe {
    let pool = pool();
    let mut recipe = Recipe::new("mode-matrix");
    for &i in picks {
        recipe = recipe.then(pool[i].clone());
    }
    recipe
}

fn build(picks: &[usize]) -> Vec<Op> {
    recipe(picks).build_ops(&builtin_registry()).unwrap()
}

/// An executor for `picks` that carries the recipe's op identities, as a
/// cached run needs, under `options`.
fn cached(picks: &[usize], options: ExecOptions) -> Executor {
    executor_from_recipe(&recipe(picks), &builtin_registry(), options.op_fusion)
        .unwrap()
        .with_options(options)
}

/// The property itself: every mode equals the oracle byte for byte, and
/// all modes agree on the per-op funnel. A mid-run replan legitimately
/// changes which commutable filter sees a sample first, so a replanned
/// run is held to the order-independent part of the funnel: the op names,
/// each barrier's counts, and the total removed.
fn check_case(picks: &[usize], case: &Case) -> usize {
    let ops = build(picks);
    let kept = oracle(&ops, case.data.clone());
    let expected = to_jsonl(&kept);
    let mut reference: Option<Vec<(String, usize, usize, usize)>> = None;
    for mode in Mode::all() {
        let ctx = format!(
            "{mode:?} picks={picks:?} n={} shard={}",
            case.data.len(),
            case.shard_size
        );
        let (out, report) = mode.run(&ops, case);
        assert_eq!(out, expected, "{ctx}: output diverged from the oracle");
        assert_eq!(report.initial_samples, case.data.len(), "{ctx}");
        let got = funnel(&report);
        let want = reference.get_or_insert_with(|| got.clone());
        if report.replans == 0 {
            assert_eq!(&got, want, "{ctx}: per-op counts diverged across modes");
        } else {
            let order_free = |f: &[(String, usize, usize, usize)]| {
                let dedups: Vec<_> = f
                    .iter()
                    .filter(|r| r.0.contains("dedup"))
                    .cloned()
                    .collect();
                let names: Vec<_> = f.iter().map(|r| r.0.clone()).collect();
                (names, dedups, f.iter().map(|r| r.3).sum::<usize>())
            };
            assert_eq!(
                order_free(&got),
                order_free(want),
                "{ctx}: replanned funnel"
            );
        }
    }
    kept.len()
}

/// The named corner cases, every run: a leading barrier (file modes ingest
/// raw shards through an empty stage), adjacent barriers (the first takes
/// the carried fingerprints, so the second hashes undecoded frames), a barrier-only
/// recipe, and a corpus of zero samples and of one.
#[test]
fn corner_recipes_and_corpora_match_the_oracle_in_every_mode() {
    let leading = [9, 0, 3, 4];
    let adjacent = [0, 3, 8, 10, 1, 4, 11];
    let barrier_only = [8];
    let full = [0, 1, 3, 4, 5, 6, 7, 8];
    check_case(&leading, &Case::new("lead", corpus(3, 70), 16));
    check_case(&adjacent, &Case::new("adj", corpus(4, 90), 7));
    check_case(&barrier_only, &Case::new("only", corpus(5, 40), 64));
    let full_case = Case::new("full", corpus(6, 120), 8);
    let kept = check_case(&full, &full_case);
    assert!(
        kept > 0 && kept * 10 < full_case.data.len() * 9,
        "the full recipe must both keep and drop a real share ({kept} of {})",
        full_case.data.len()
    );
    check_case(&adjacent, &Case::new("zero", corpus(7, 0), 4));
    check_case(&leading, &Case::new("one", corpus(8, 1), 1));
}

/// The text of sample `i`'s fields no op reads, written as no writer of
/// this workspace writes JSON: whitespace, `\/` and `\u0041` escapes,
/// `1.0e3` and `-0`, nested keys out of order, duplicate keys — and `url`
/// canonical on every other line only, so one column takes both paths.
fn noncanonical_fields(i: usize) -> String {
    let url = match i % 2 {
        0 => format!("\"url\":\"https://example.org/{i}\""),
        _ => format!("\"url\" : \"https:\\/\\/example.org\\/{i}\""),
    };
    let extra = match i % 5 {
        0 => format!("\"meta\":{{\"z\":{i},\"a\":{{\"y\":[1.0e3,-0,2.50],\"b\":\"\\u0041\\t\"}}}}"),
        1 => "\"dup\":\"first\",\"dup\":{\"k\":[true,null],\"j\":1E2}".to_string(),
        2 => "\"s\":\"\\ud83d\\ude00 \\u00e9 \\b\\f\\u001F\",\"n\":-0.0".to_string(),
        3 => "\"big\":99999999999999999999,\"e\":[ 1 , { } , [ ] ]".to_string(),
        _ => format!("\"meta\":{{\"a\":{{\"b\":\"A\\t\",\"y\":[1000.0,0,2.5]}},\"z\":{i}}}"),
    };
    format!("{url}, {extra}")
}

/// Inert fields that are not canonical JSON text are parsed and written,
/// each on its own, on the way in; canonical ones are copied. Either way
/// every shape prints what the oracle prints for the parsed record.
#[test]
fn non_canonical_inert_fields_match_the_oracle_in_every_mode() {
    let texts = corpus(21, 60);
    let lines: Vec<String> = texts
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut text = String::new();
            data_juicer::core::write_json_str(&mut text, s.text()).unwrap();
            match i % 3 {
                0 => format!("{{\"text\":{text},{}}}", noncanonical_fields(i)),
                1 => format!(" {{ {} , \"text\" : {text} }} ", noncanonical_fields(i)),
                _ => format!(
                    "{{{},\"text\":\"overwritten\",\"text\":{text}}}",
                    noncanonical_fields(i)
                ),
            }
        })
        .collect();
    let data: Dataset = lines
        .iter()
        .map(|line| Sample::from_value(data_juicer::core::parse_json(line).unwrap()).unwrap())
        .collect();
    let case = Case::new("noncanonical", data, 8);
    let per_file = lines.len().div_ceil(3);
    for (k, chunk) in lines.chunks(per_file).enumerate() {
        fs::write(
            case.dir.join(format!("in/{k:02}.jsonl")),
            chunk.join("\n") + "\n",
        )
        .unwrap();
    }
    let kept = check_case(&[0, 3, 8, 1, 4, 9], &case);
    assert!(kept > 0 && kept < case.data.len(), "{kept}");
    check_case(&[10, 2, 5], &case);
}

/// Inert fields whose values the writer prints as another value — an
/// integral float of `|x| ≥ 1e15`, printed as an integer, and an
/// overflowing float, printed as `null` — keep those values through the
/// ways out that keep types: the dataset a file run without an output
/// directory returns, and a spilled run of the parsed records resumed from
/// the cache entries of its first stages, hold, value for value, what the
/// oracle makes of a whole parse of each record. `ts` is an integer on
/// most lines, so a shard's column holds entries before a float demotes
/// it.
#[test]
fn inert_values_their_text_would_change_survive_a_file_run() {
    let texts = corpus(22, 60);
    let lines: Vec<String> = texts
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut text = String::new();
            data_juicer::core::write_json_str(&mut text, s.text()).unwrap();
            let ts = match i % 4 {
                3 => "1700000000000000.0".to_string(),
                _ => format!("{}", 1_700_000_000_000_000i64 + i as i64),
            };
            let score = if i % 7 == 5 { "1e999" } else { "0.5" };
            format!("{{\"text\":{text},\"ts\":{ts},\"score\":[{score}],\"url\":\"u{i}\"}}")
        })
        .collect();
    let data: Dataset = lines
        .iter()
        .map(|line| Sample::from_value(data_juicer::core::parse_json(line).unwrap()).unwrap())
        .collect();
    assert!(data
        .iter()
        .any(|s| s.value().get_path("ts") == Some(&Value::Float(1.7e15))));
    let case = Case::new("roundtrip", data, 8);
    let per_file = lines.len().div_ceil(3);
    for (k, chunk) in lines.chunks(per_file).enumerate() {
        fs::write(
            case.dir.join(format!("in/{k:02}.jsonl")),
            chunk.join("\n") + "\n",
        )
        .unwrap();
    }
    for picks in [&[0, 3, 8, 1, 4, 9][..], &[10, 2, 5]] {
        let ops = build(picks);
        let want = oracle(&ops, case.data.clone());
        let head = &picks[..=picks.iter().position(|&i| i >= FIRST_DEDUP).unwrap()];
        for np in [1, 3] {
            let ctx = format!("picks={picks:?} np={np}");
            let base = ExecOptions {
                num_workers: np,
                shard_size: Some(case.shard_size),
                ..ExecOptions::default()
            };
            let file = ExecOptions {
                input: Some(format!("{}/in/*.jsonl", case.dir.display())),
                ..base.clone()
            };
            let (out, _) = Executor::new(ops.clone())
                .with_options(file)
                .run_io()
                .unwrap();
            same_values(&out.unwrap(), &want, &format!("{ctx} file"));
            let cache = CacheManager::new(case.dir.join(format!("cache-{np}")), CacheMode::Cache);
            let spilled = ExecOptions {
                memory_budget: Some(1),
                spill_dir: Some(case.dir.join("spill")),
                ..base
            };
            cached(head, spilled.clone())
                .run_with_cache(case.data.clone(), &cache)
                .unwrap();
            let (out, resumed) = cached(picks, spilled)
                .run_with_cache(case.data.clone(), &cache)
                .unwrap();
            assert!(resumed.spilled && resumed.resumed_steps > 0, "{ctx}");
            same_values(&out, &want, &format!("{ctx} cache resume"));
        }
    }
}

/// Writes into `stats.extreme`, a field ops touch, a float picked by the
/// sum of the text's bytes: on a few sums one its JSON text would read back as
/// another value (`1e16` and `1.7e15` as integers, infinity as `null`) or
/// must keep its sign (`-0.0`), else a plain fraction.
struct ExtremeFloats;

impl data_juicer::core::Mapper for ExtremeFloats {
    fn name(&self) -> &'static str {
        "extreme_float_mapper"
    }

    fn process(
        &self,
        sample: &mut Sample,
        _ctx: &mut SampleContext,
    ) -> data_juicer::core::Result<bool> {
        let sum: usize = sample.text().bytes().map(usize::from).sum();
        let x = match sum % 13 {
            0 => 1e16,
            1 => 1.7e15,
            2 => -0.0,
            3 => f64::INFINITY,
            _ => sum as f64 / 4.0,
        };
        sample.set_stat("extreme", x);
        Ok(true)
    }

    fn fields_read(&self) -> data_juicer::core::FieldSet {
        data_juicer::core::FieldSet::of(["text"])
    }

    fn fields_written(&self) -> data_juicer::core::FieldSet {
        data_juicer::core::FieldSet::of(["stats"])
    }
}

fn extreme_floats(_: &data_juicer::core::ParamView<'_>) -> data_juicer::core::Result<Op> {
    Ok(Op::Mapper(std::sync::Arc::new(ExtremeFloats)))
}

/// `got` holds `want`'s values, a float's sign included.
fn same_values(got: &Dataset, want: &Dataset, ctx: &str) {
    assert_eq!(got, want, "{ctx}");
    for (g, w) in got.iter().zip(want.iter()) {
        assert!(g.value().structural_eq(w.value()), "{ctx}: {g:?} != {w:?}");
    }
}

/// Values a stage writes into a touched field whose JSON text would read
/// back as another value demote their column, in the frame they are
/// stored in, to tagged values: every way out that keeps types holds the
/// oracle's values — the dataset a run returns (spilled, and file to file
/// without an output directory), and a spilled run resumed from the cache
/// entries of a shorter recipe — at np 1 and 3. A stage between the
/// barriers lends the demoted column on; JSONL egress prints the oracle's
/// bytes.
#[test]
fn touched_values_their_text_would_change_survive_every_way_out() {
    let mut registry = builtin_registry();
    registry.register("extreme_float_mapper", extreme_floats);
    let recipe = |ops: &[&str]| {
        let mut recipe = Recipe::new("extreme");
        for op in ops {
            recipe = recipe.then(OpSpec::new(op));
        }
        recipe
    };
    let head = recipe(&["extreme_float_mapper", "document_deduplicator"]);
    let full = recipe(&[
        "extreme_float_mapper",
        "document_deduplicator",
        "whitespace_normalization_mapper",
    ]);
    let case = Case::new("extreme", corpus(23, 70), 8);
    let ops = full.build_ops(&registry).unwrap();
    let want = oracle(&ops, case.data.clone());
    for x in [1e16, 1.7e15, -0.0, f64::INFINITY] {
        let hits = want.iter().filter(|s| {
            let v = s.value().get_path("stats.extreme");
            v.is_some_and(|v| v.structural_eq(&Value::Float(x)))
        });
        assert!(hits.count() > 0, "no sample keeps {x}");
    }
    let dir = case.dir.clone();
    let out_dir = dir.join("out");
    let exec = |recipe: &Recipe, options: ExecOptions| {
        executor_from_recipe(recipe, &registry, true)
            .unwrap()
            .with_options(options)
    };
    for np in [1, 3] {
        let base = ExecOptions {
            num_workers: np,
            shard_size: Some(case.shard_size),
            spill_dir: Some(dir.join("spill")),
            ..ExecOptions::default()
        };
        let spilled = ExecOptions {
            memory_budget: Some(1),
            ..base.clone()
        };
        let (out, report) = exec(&full, spilled.clone()).run(case.data.clone()).unwrap();
        assert!(report.spilled);
        same_values(&out, &want, &format!("spilled np {np}"));
        let file = ExecOptions {
            input: Some(format!("{}/in/*.jsonl", dir.display())),
            ..base.clone()
        };
        let (out, _) = exec(&full, file.clone()).run_io().unwrap();
        same_values(&out.unwrap(), &want, &format!("file np {np}"));
        let _ = fs::remove_dir_all(&out_dir);
        let options = ExecOptions {
            output: Some(out_dir.clone()),
            ..file.clone()
        };
        exec(&full, options).run_io().unwrap();
        let manifest = EgressManifest::load(&out_dir).unwrap();
        let got: String = manifest
            .parts
            .iter()
            .map(|p| fs::read_to_string(out_dir.join(&p.file)).unwrap())
            .collect();
        assert_eq!(got, to_jsonl(&want), "np {np}");
        // The cache: the head's entries, then the full recipe resumed.
        let cache = CacheManager::new(dir.join(format!("cache-{np}")), CacheMode::Cache);
        exec(&head, spilled.clone())
            .run_with_cache(case.data.clone(), &cache)
            .unwrap();
        let (out, resumed) = exec(&full, spilled)
            .run_with_cache(case.data.clone(), &cache)
            .unwrap();
        assert!(resumed.resumed_steps > 0, "np {np}");
        same_values(&out, &want, &format!("cache resume np {np}"));
    }
}

/// A spilled barrier writes nothing — its mask rides on the spool to
/// whatever opens it next. Every next thing, in every shape: JSONL egress
/// (transcoded), materialization, a following stage, a second barrier with
/// no stage between, and a cache save, read back by a run of the same
/// recipe that resumes every step from it.
#[test]
fn a_deferred_mask_reaches_every_way_out() {
    let terminal = [0, 3, 8];
    let then_stage = [1, 9, 0, 4, 2];
    let back_to_back = [0, 8, 10, 11, 4];
    let all_dropped = [8, 11];
    let mut same_text = Dataset::from_texts(vec!["one body of text. repeated."; 23]);
    same_text.extend(corpus(12, 0));
    let cases = [
        (&terminal[..], Case::new("out-a", corpus(10, 80), 9)),
        (&then_stage[..], Case::new("out-b", corpus(11, 80), 16)),
        (&back_to_back[..], Case::new("out-c", corpus(13, 90), 7)),
        // All but the first sample of every shard after the first is
        // dropped, so whole slots are masked out.
        (&all_dropped[..], Case::new("out-d", same_text, 5)),
    ];
    for (picks, case) in &cases {
        let ops = build(picks);
        let expected = to_jsonl(&oracle(&ops, case.data.clone()));
        for mode in Mode::ways_out() {
            let (out, _) = mode.run(&ops, case);
            assert_eq!(out, expected, "{mode:?} picks={picks:?}");
        }
        for np in [1, 3] {
            let ctx = format!("cache np {np} picks={picks:?}");
            let cache = CacheManager::new(case.dir.join(format!("cache-{np}")), CacheMode::Cache);
            let exec = cached(
                picks,
                ExecOptions {
                    num_workers: np,
                    shard_size: Some(case.shard_size),
                    memory_budget: Some(1),
                    spill_dir: Some(case.dir.join("spill")),
                    op_fusion: false,
                    ..ExecOptions::default()
                },
            );
            let (saved, first) = exec.run_with_cache(case.data.clone(), &cache).unwrap();
            let (resumed, again) = exec.run_with_cache(case.data.clone(), &cache).unwrap();
            assert_eq!(first.resumed_steps, 0, "{ctx}");
            assert_eq!(again.resumed_steps, picks.len(), "{ctx}");
            assert_eq!(to_jsonl(&saved), expected, "{ctx}: saved");
            assert_eq!(to_jsonl(&resumed), expected, "{ctx}: resumed");
        }
    }
}

/// A stage cache entry saved right after a spilled barrier holds the
/// masked data (the deferred mask is applied on the way into the entry),
/// so a later run that resumes from it equals a fresh run.
#[test]
fn a_cache_entry_saved_behind_a_deferred_mask_resumes_like_a_fresh_run() {
    let data = corpus(14, 90);
    let head = [0, 3, 8];
    // No second barrier: duplicates that slipped into the entry would show.
    let extended = [0, 3, 8, 1, 4];
    let fresh = to_jsonl(&oracle(&build(&extended), data.clone()));
    let dir = std::env::temp_dir().join(format!("dj-mode-matrix-cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = CacheManager::new(dir.join("cache"), CacheMode::Cache);
    let exec = |picks: &[usize]| {
        cached(
            picks,
            ExecOptions {
                num_workers: 2,
                shard_size: Some(8),
                memory_budget: Some(1),
                spill_dir: Some(dir.join("spill")),
                // One step per op, so `resumed_steps` counts recipe ops.
                op_fusion: false,
                ..ExecOptions::default()
            },
        )
    };
    let (_, first) = exec(&head).run_with_cache(data.clone(), &cache).unwrap();
    assert!(first.spilled && first.resumed_steps == 0);
    let (out, resumed) = exec(&extended)
        .run_with_cache(data.clone(), &cache)
        .unwrap();
    assert_eq!(resumed.resumed_steps, head.len());
    assert_eq!(to_jsonl(&out), fresh);
    let _ = fs::remove_dir_all(&dir);
}

/// Cache resume × {in-memory, spill}: a recipe extended past a cached
/// prefix resumes from the entry and equals the oracle, and the resumed
/// data is the entry's frames as they were saved, so the stage that runs on
/// a spilled resume still projects and splices (a re-encode would decode
/// whole samples and pass nothing through). One flipped bit anywhere in the
/// entry — the resident one-frame kind included — is a cache miss and a
/// correct fresh run, never a resumed wrong answer, and so is the entry an
/// earlier release saved for the same stage, made of row (`DJSF`) frames:
/// the fresh run replaces it with a columnar one.
#[test]
fn a_cache_resume_keeps_the_entrys_format_and_a_damaged_entry_is_a_miss() {
    let data = corpus(21, 90);
    let head = [0, 3, 8];
    let extended = [0, 3, 8, 1, 4];
    let fresh = to_jsonl(&oracle(&build(&extended), data.clone()));
    for shape in [Shape::InMemory, Shape::Spill] {
        let tag = format!("{shape:?}");
        let dir = std::env::temp_dir().join(format!(
            "dj-mode-matrix-resume-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let root = dir.join("cache");
        let cache = CacheManager::new(&root, CacheMode::Cache);
        let mode = Mode::plain(shape);
        // One shard in memory, so that shape saves the one-frame entry.
        let shard_size = if shape == Shape::InMemory { 1000 } else { 8 };
        let exec = |picks: &[usize]| {
            cached(
                picks,
                ExecOptions {
                    spill_dir: Some(dir.join("spill")),
                    // One step per op, so `resumed_steps` counts recipe ops.
                    op_fusion: false,
                    ..mode.options(shard_size)
                },
            )
        };
        let entries = || -> Vec<PathBuf> {
            let mut paths: Vec<PathBuf> = fs::read_dir(&root)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            paths.sort();
            paths
        };
        let (_, first) = exec(&head).run_with_cache(data.clone(), &cache).unwrap();
        assert_eq!(first.resumed_steps, 0, "{tag}");
        let head_entries = entries();
        let (out, resumed) = exec(&extended)
            .run_with_cache(data.clone(), &cache)
            .unwrap();
        assert_eq!(resumed.resumed_steps, head.len(), "{tag}");
        assert_eq!(resumed.spilled, shape != Shape::InMemory, "{tag}");
        assert_eq!(to_jsonl(&out), fresh, "{tag}");
        // Only spool slots are projected and spliced.
        let spilled = shape == Shape::Spill;
        assert_eq!(resumed.bytes_passthrough > 0, spilled, "{tag}");
        assert_eq!(resumed.bytes_decoded > 0, spilled, "{tag}");

        // The entry a re-run of the extended recipe resumes from: the one
        // its last stage saved, the only entry the head run did not.
        let mut added = entries();
        added.retain(|path| !head_entries.contains(path));
        let [entry] = &added[..] else {
            panic!("{tag}: the extended run added {added:?}")
        };
        let good = read_entry(entry);
        let len = good.concat().len();
        assert!(good[0].starts_with(COLUMNAR_FRAME_MAGIC), "{tag}");
        // A flipped bit at byte `pos` of the slots laid end to end.
        let damaged = [0, 5, 13, 20, len / 2, len - 1].map(|pos| {
            let mut bad = good.clone();
            let (mut slot, mut at) = (0, pos);
            while at >= bad[slot].len() {
                at -= bad[slot].len();
                slot += 1;
            }
            bad[slot][at] ^= 0x20;
            (format!("@{pos}"), bad)
        });
        let row_frames = good.iter().map(|slot| as_row_frame(slot)).collect();
        let old_format = ("row frames".to_string(), row_frames);
        for (what, bad) in damaged.into_iter().chain([old_format]) {
            write_entry(entry, &bad);
            let (out, rerun) = exec(&extended)
                .run_with_cache(data.clone(), &cache)
                .unwrap();
            assert_eq!(
                rerun.resumed_steps, 0,
                "{tag}: resumed from an entry of {what}"
            );
            assert_eq!(to_jsonl(&out), fresh, "{tag} {what}");
            // The fresh run saved the entry again, whole.
            assert_eq!(read_entry(entry), good, "{tag} {what}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// An entry's slot files in slot order.
fn entry_slots(entry: &Path) -> Vec<PathBuf> {
    let mut slots: Vec<PathBuf> = fs::read_dir(entry)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "djs"))
        .collect();
    slots.sort();
    slots
}

/// A cache entry's sealed frames, one per slot, in slot order.
fn read_entry(entry: &Path) -> Vec<Vec<u8>> {
    entry_slots(entry)
        .iter()
        .map(|p| fs::read(p).unwrap())
        .collect()
}

/// Write `frames` — an entry's frames, damaged or re-encoded — back over
/// its slots, one frame per slot.
fn write_entry(entry: &Path, frames: &[Vec<u8>]) {
    let slots = entry_slots(entry);
    assert_eq!(frames.len(), slots.len());
    for (slot, frame) in slots.iter().zip(frames) {
        fs::write(slot, frame).unwrap();
    }
}

/// One slot's frame decoded and re-encoded as a row frame — the slot an
/// earlier release saved for the same samples.
fn as_row_frame(sealed: &[u8]) -> Vec<u8> {
    let (shard, _) = Frame::parse(sealed).unwrap().decode(None, None).unwrap();
    let row = encode_shard_frame(&shard, Codec::Djz);
    assert!(row.starts_with(SHARD_FRAME_MAGIC));
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random recipes × random corpora × every mode.
    #[test]
    fn prop_every_mode_matches_the_oracle(
        picks in proptest::collection::vec(0usize..12, 1..7),
        seed in 0u64..1000,
        n in prop_oneof![Just(0usize), Just(9), 20usize..80],
        shard_size in prop_oneof![Just(1usize), Just(5), Just(13), Just(64)],
    ) {
        let mut picks = picks;
        if !picks.iter().any(|&i| i >= FIRST_DEDUP) {
            picks.push(FIRST_DEDUP + (seed % 4) as usize);
        }
        check_case(&picks, &Case::new("prop", corpus(seed, n), shard_size));
    }
}

/// The matrix only proves something if each mode really is a different
/// path: the spill shapes spill, the forced-spill shape splices and only it
/// decodes by column, the file shapes ingest within the streaming residency
/// bound, the runtime modes run as jobs (checked in [`Mode::run`]), and the
/// adaptive modes replan — in every shape, the file shape's ingest stage
/// included — on a stage misordered on purpose (an expensive keep-all WORDS
/// pair ahead of a cheap selective CHARS pair, a quarter of the corpus
/// symbol soup), which also holds the replanned funnel to the oracle.
#[test]
fn the_modes_are_distinct_paths() {
    let mut data = corpus(9, 150);
    for (i, s) in data.samples_mut().iter_mut().enumerate() {
        if i % 4 == 0 {
            s.set_text(format!("@@@@ #### $$$$ %%%% ^^^^ &&&& **** (((( )))) {i}"));
        }
    }
    let case = Case::new("distinct", data, 8);
    let recipe = Recipe::new("distinct")
        .then(
            OpSpec::new("word_entropy_filter")
                .with("min_entropy", 0.0)
                .with("max_entropy", 1e6),
        )
        .then(
            OpSpec::new("average_word_length_filter")
                .with("min_len", 0.0)
                .with("max_len", 1e6),
        )
        .then(
            OpSpec::new("alphanumeric_ratio_filter")
                .with("min_ratio", 0.5)
                .with("max_ratio", 1.0),
        )
        .then(
            OpSpec::new("special_characters_filter")
                .with("min_ratio", 0.0)
                .with("max_ratio", 0.4),
        )
        .then(OpSpec::new("document_deduplicator"));
    let ops = recipe.build_ops(&builtin_registry()).unwrap();
    let expected = to_jsonl(&oracle(&ops, case.data.clone()));
    for mode in Mode::all() {
        let (out, report) = mode.run(&ops, &case);
        assert_eq!(out, expected, "{mode:?}: output diverged from the oracle");
        let file = mode.shape == Shape::File;
        assert_eq!(report.spilled, mode.shape != Shape::InMemory, "{mode:?}");
        // Only a pipeline stage over a spool projects and splices. The file
        // shape runs this recipe's one stage during ingest, and a spilled
        // barrier rewrites no frame (its mask rides on the spool) and
        // clusters the fingerprints ingest carried, so nothing is decoded by column
        // or passed through there.
        let splices = mode.shape == Shape::Spill;
        assert_eq!(report.bytes_passthrough > 0, splices, "{mode:?}");
        assert_eq!(report.bytes_decoded > 0, splices, "{mode:?}");
        assert_eq!(report.ingest_bytes > 0, file, "{mode:?}");
        assert_eq!(report.adaptive, mode.adaptive, "{mode:?}");
        if report.spilled {
            let bound = mode.np * case.shard_size;
            assert!(
                report.peak_resident_samples <= bound,
                "{mode:?}: {} resident samples > {bound}",
                report.peak_resident_samples
            );
        }
        // The file shape runs this recipe's one stage during ingest, whose
        // shard count is unknown until the stream is dry: it replans too.
        assert_eq!(
            report.replans > 0,
            mode.adaptive,
            "{mode:?}: {} replans",
            report.replans
        );
    }
}

/// Params for `name`: its first use in the catalog recipes, else the
/// registry defaults — except the two ops no recipe uses whose defaults
/// would leave them idle on a small corpus.
fn spec_for(name: &str) -> OpSpec {
    let used = recipes::catalog()
        .into_iter()
        .filter_map(recipes::by_name)
        .flat_map(|recipe| recipe.process)
        .find(|spec| spec.name == name);
    match (used, name) {
        (Some(spec), _) => spec,
        (None, "text_truncate_mapper") => OpSpec::new(name).with("max_chars", 200i64),
        (None, "stats_range_filter") => OpSpec::new(name)
            .with("key", "seeded")
            .with("min", 0.0)
            .with("max", 0.5),
        (None, _) => OpSpec::new(name),
    }
}

/// Something for every op to do: the synthetic families (web with
/// duplicates and metadata, arXiv LaTeX, code with stars and suffixes,
/// Chinese, dialog) plus one line per text defect a mapper exists for,
/// language and usage tags for the meta filters, and a pre-seeded stat
/// that `stats_range_filter` reads and filters must carry through.
fn every_op_corpus() -> Dataset {
    let mut ds = corpus(30, 24);
    ds.extend(arxiv_corpus(31, 3));
    let mut code = code_corpus(32, 5);
    for s in code.samples_mut() {
        let lang = s.meta("lang").and_then(Value::as_str).map(str::to_string);
        s.set_meta("suffix", lang.unwrap_or_default());
    }
    ds.extend(code);
    ds.extend(chinese_corpus(33, 4, 0.5));
    ds.extend(dialog_corpus(34, 2));
    for text in [
        "<p>Some <b>markup</b> &amp; entities</p> around a sentence of ordinary words here",
        "write to someone@example.com or reach the host at 192.168.10.20 for the report",
        "Copyright (c) 2023 Example Corp. All rights reserved.\nThe body text follows here.",
        "a repeated line\na repeated line\na repeated line\nand one unique line at the end",
        "The same sentence again. The same sentence again. The same sentence again. Done.",
        "stars ★ and boxes ■ and circles ○ sprinkled ◆ through ● the text",
        "a supercalifragilisticexpialidociousandthensomemorelettersuntilitisverylong word",
        "| name | value |\n| --- | --- |\n| a | 1 |\n| b | 2 |\nsome prose under the table",
        "text with <redacted> content inside and more words after it to keep it long",
        "donâ€™t let the mojibake â€œquotesâ€\u{9d} through the cleaning pipeline please",
        "Ｆｕｌｌｗｉｄｔｈ，punctuation！and “curly quotes” — dashes… everywhere？",
        "SHOUTING ALL THE WORDS IN THIS SAMPLE MAKES THE UPPERCASE RATIO VERY HIGH",
        "\\newcommand{\\R}{\\mathbb{R}}\nwe work in \\R with a % comment\n\\bibliography{refs}",
        "@@@@ #### $$$$ %%%% ^^^^ &&&& **** (((( )))) ~~~~ ++++",
        "3.14159 26535 89793 23846 26433 83279 50288 41971 69399",
        "spaced      out        words        with        gaps",
        "xqzv kjwp qqzx vbnm zzqx pfft grrk wxyz jjjq kkvz qpwm",
        "short",
    ] {
        ds.push(Sample::from_text(text));
    }
    for (i, s) in ds.samples_mut().iter_mut().enumerate() {
        if i % 3 == 0 {
            s.set_meta("language", "EN");
        }
        if i % 4 == 1 {
            s.set_meta("usage", ["IFT", "CFT-MR", "CFT-P"][i % 3]);
        }
        if i % 5 == 2 {
            s.set_stat("seeded", (i % 10) as f64 / 10.0);
        }
    }
    ds
}

/// Every registered op, alone in a recipe (behind an exact-dedup barrier,
/// so the file shapes run it as a stage over a spool and every shape
/// applies a deferred mask first), through every shape, equal byte for
/// byte to the in-memory run — and doing something there, so
/// no op passes by having nothing to do. This is what holds each op's
/// declared field footprint (`fields_read` / `fields_written`) to what it
/// actually touches: the spilled shapes decode only the footprint and
/// refuse a sample that changed a column they did not decode.
#[test]
fn every_registered_op_matches_in_memory_in_every_shape() {
    let registry = builtin_registry();
    let case = Case::new("every-op", every_op_corpus(), 7);
    let mut idle = Vec::new();
    for name in registry.names() {
        let op = registry.build(name, &spec_for(name).params).unwrap();
        let mut ops = Vec::new();
        if !matches!(op, Op::Deduplicator(_)) {
            let barrier = registry.build("document_deduplicator", &Default::default());
            ops.push(barrier.unwrap());
        }
        ops.push(op);

        let (expected, report) = Mode::plain(Shape::InMemory).run(&ops, &case);
        let step = report.ops.last().unwrap();
        let busy = match ops.last().unwrap() {
            Op::Mapper(_) => step.changed > 0,
            Op::Filter(_) => step.removed > 0 && step.samples_out > 0,
            Op::Deduplicator(_) => step.removed > 0,
        };
        if !busy {
            idle.push(name);
        }
        for &shape in &SHAPES[1..] {
            let (out, _) = Mode::plain(shape).run(&ops, &case);
            assert!(
                out == expected,
                "{name}: {shape:?} diverged from the in-memory run"
            );
        }
    }
    assert!(
        idle.is_empty(),
        "ops with nothing to do on the corpus: {idle:?}"
    );
}
