//! Executor configuration: [`ExecOptions`], the one-shot [`EnvKnobs`]
//! snapshot of the `DJ_*` environment, and the recipe → executor bridge.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use dj_core::{DjError, FaultPlan, OnError, Result};
use dj_io::OutputFormat;

use crate::executor::Executor;
use crate::runtime::JobControl;

/// How many shards to cut per worker when `shard_size` is on auto.
/// Over-partitioning lets fast workers steal extra shards (morsel-driven
/// scheduling) instead of idling at the stage join.
const AUTO_SHARDS_PER_WORKER: usize = 4;

/// Environment override for [`ExecOptions::memory_budget`] (bytes): an
/// operator's host-level cap, applied to every run whose options set no
/// budget of their own.
pub const MEMORY_BUDGET_ENV: &str = "DJ_MEMORY_BUDGET";

/// Environment knob installing a deterministic fault plan for the run
/// (see [`dj_core::faults`] for the grammar: `seed:N` and/or
/// `site:kind[@n]` clauses). Snapshotted like [`MEMORY_BUDGET_ENV`]; a
/// malformed plan is a hard config error. The parsed plan is resolved
/// once per options value, so retry attempts share one plan — and its
/// hit counters — and a transient injected fault fires once, not once
/// per attempt.
pub const FAULTS_ENV: &str = "DJ_FAULTS";

/// A one-shot snapshot of the two executor env knobs, captured when
/// [`ExecOptions`] is constructed. Everything else about a run's shape is
/// the recipe's (or the options') to say; these two are for the host:
/// a memory cap, and a chaos seed to replay.
///
/// A long-lived `dj serve` process gives every job the view it had when
/// the job's options were built, whatever the environment does later, and
/// [`EnvKnobs::validate`] makes a malformed value a hard
/// [`DjError::Config`] instead of a silent default.
#[derive(Debug, Clone, Default)]
pub struct EnvKnobs {
    memory_budget: Option<String>,
    faults: Option<String>,
}

impl EnvKnobs {
    /// Snapshot the current environment.
    pub fn capture() -> EnvKnobs {
        let grab = |name: &str| std::env::var(name).ok();
        EnvKnobs {
            memory_budget: grab(MEMORY_BUDGET_ENV),
            faults: grab(FAULTS_ENV),
        }
    }

    /// The `DJ_MEMORY_BUDGET` override in bytes, if set. A malformed
    /// value is a configuration error — silently ignoring it would run
    /// the exact corpus the knob was set to protect fully in memory.
    pub fn memory_budget(&self) -> Result<Option<u64>> {
        let Some(raw) = self.memory_budget.as_deref().map(str::trim) else {
            return Ok(None);
        };
        if raw.is_empty() {
            return Ok(None);
        }
        match raw.parse::<u64>() {
            Ok(b) if b >= 1 => Ok(Some(b)),
            _ => Err(DjError::Config(format!(
                "{MEMORY_BUDGET_ENV} must be a positive integer byte count, got `{raw}`"
            ))),
        }
    }

    /// The `DJ_FAULTS` fault plan, parsed fresh. Callers that retry must
    /// parse once and share the plan (see [`FAULTS_ENV`]); the executor
    /// does this through `ExecOptions::resolved_faults`.
    pub fn faults(&self) -> Result<Option<Arc<FaultPlan>>> {
        let Some(raw) = self.faults.as_deref().map(str::trim) else {
            return Ok(None);
        };
        if raw.is_empty() {
            return Ok(None);
        }
        FaultPlan::parse(raw).map(|p| Some(Arc::new(p)))
    }

    /// Hard-validate every knob at once (run entry points call this so a
    /// typo fails the run up front, not at whichever point first consults
    /// the knob).
    pub fn validate(&self) -> Result<()> {
        self.memory_budget()?;
        self.faults()?;
        Ok(())
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Number of worker threads (the recipe's `np`).
    pub num_workers: usize,
    /// Enable OP fusion + reordering (§6).
    pub op_fusion: bool,
    /// How many trace examples to keep per OP (0 disables tracing).
    pub trace_examples: usize,
    /// Target samples per shard. `None` = auto: cut
    /// `num_workers * 4` shards so workers can steal work from stragglers.
    pub shard_size: Option<usize>,
    /// Peak dataset bytes the engine may keep in memory. When the estimated
    /// dataset size exceeds this, shards spill to disk and stages stream
    /// them with double-buffered prefetch (out-of-core mode). `None`
    /// disables spilling unless the `DJ_MEMORY_BUDGET` env var is set.
    pub memory_budget: Option<u64>,
    /// Directory for spilled shard frames; `None` = the system temp dir.
    /// Each run creates (and removes on completion) its own subdirectories.
    pub spill_dir: Option<PathBuf>,
    /// Streaming prefetch depth: how many shards may be in flight *per
    /// worker* while stages stream (loader hand + channel + worker hands),
    /// bounding the live set at `num_workers × prefetch_depth` shards.
    /// `2` (the default) is classic double buffering — disk reads overlap
    /// compute. `1` disables the loader thread entirely: workers pull
    /// shards themselves, halving the resident bound at the cost of IO
    /// overlap. Must be ≥ 1; validated at run time.
    pub prefetch_depth: usize,
    /// Input corpus for [`Executor::run_io`]: a file path or glob
    /// (`data/*.jsonl`) of JSONL/CSV files, streamed and cut into
    /// `shard_size` shards without ever materializing the corpus.
    pub input: Option<String>,
    /// Output directory for [`Executor::run_io`]: the processed corpus is
    /// written as manifest-tracked shard parts (see `dj_io::ShardedWriter`)
    /// instead of being returned in memory.
    pub output: Option<PathBuf>,
    /// Egress file format when `output` is set.
    pub output_format: OutputFormat,
    /// Enable the adaptive, measurement-driven planner: plan-time step
    /// reordering from the persisted cost model, mid-run re-planning
    /// after the first shards of a stage, measured barrier gating and
    /// knob auto-tuning (recipe `adaptive:`).
    pub adaptive: bool,
    /// Where the cost-model sidecar lives. `None` = under the cache root
    /// when [`ExecOptions::adaptive`] is set and a cache is attached;
    /// set explicitly to persist measurements for cache-less runs (e.g.
    /// `run_io`).
    pub stats_dir: Option<PathBuf>,
    /// Per-op prefix caching: segment the plan into one stage per step so
    /// every step's output is cached under a chained prefix fingerprint —
    /// editing op *k* of an *n*-op stage resumes ops `0..k` from cache
    /// instead of recomputing the whole stage. Costs a dataset
    /// materialization per step, so it is opt-in (iterative recipe
    /// development, not production throughput). Only applies to cached
    /// runs.
    pub prefix_cache: bool,
    /// Snapshot of the executor env knobs (`DJ_MEMORY_BUDGET`,
    /// `DJ_FAULTS`), captured when these options were constructed.
    pub env: EnvKnobs,
    /// The owning service job, when this run was submitted through the
    /// runtime: cancellation checks, shard-progress counters and
    /// admission-control accounting hang off it. `None` for direct runs.
    pub job: Option<Arc<JobControl>>,
    /// What to do when a single record fails — a malformed ingest line
    /// or a sample an OP rejects. `Fail` (default) aborts the run;
    /// `Skip` drops the record; `Quarantine` drops it and preserves it
    /// in a checksummed sidecar next to the egress manifest.
    pub on_error: OnError,
    /// Error budget for `Skip`/`Quarantine`: the run fails once
    /// `(skipped + quarantined) / records_seen` exceeds this ratio.
    /// `1.0` (default) never trips.
    pub max_error_ratio: f64,
    /// Deterministic fault plan for chaos testing. Explicitly set plans
    /// win over the `DJ_FAULTS` snapshot; the plan's per-site hit
    /// counters live in the `Arc`, so handing the *same* plan to every
    /// retry attempt makes an injected transient fault fire exactly on
    /// its programmed hit and never again.
    pub faults: Option<Arc<FaultPlan>>,
    /// One-shot resolution of `faults`-or-env, shared by clones of this
    /// options value (and therefore by retry attempts). Public only so
    /// functional-update construction (`..ExecOptions::default()`) works
    /// outside this crate; leave it defaulted.
    #[doc(hidden)]
    pub resolved_faults: OnceLock<Option<Arc<FaultPlan>>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            num_workers: default_parallelism(),
            op_fusion: true,
            trace_examples: 0,
            shard_size: None,
            memory_budget: None,
            spill_dir: None,
            prefetch_depth: DEFAULT_PREFETCH_DEPTH,
            input: None,
            output: None,
            output_format: OutputFormat::Jsonl,
            adaptive: false,
            stats_dir: None,
            prefix_cache: false,
            env: EnvKnobs::capture(),
            job: None,
            on_error: OnError::Fail,
            max_error_ratio: 1.0,
            faults: None,
            resolved_faults: OnceLock::new(),
        }
    }
}

/// Default streaming prefetch depth (double buffering).
pub const DEFAULT_PREFETCH_DEPTH: usize = 2;

/// Shard size for file-backed runs when the recipe leaves `shard_size` on
/// auto — a fixed cut is required because the corpus length is unknown
/// until the stream is dry.
pub const DEFAULT_IO_SHARD_SIZE: usize = 1024;

/// The machine's available parallelism (fallback 1).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ExecOptions {
    /// How many shards to cut for a dataset of `len` samples.
    pub(crate) fn shard_count(&self, len: usize) -> usize {
        if len == 0 {
            return 1;
        }
        let n = match self.shard_size {
            Some(size) => len.div_ceil(size.max(1)),
            None => {
                let workers = self.num_workers.max(1);
                if workers == 1 {
                    1
                } else {
                    workers * AUTO_SHARDS_PER_WORKER
                }
            }
        };
        n.clamp(1, len)
    }
}

/// Convenience: build an executor straight from a recipe + registry,
/// threading the recipe's `np`, `shard_size` and out-of-core knobs through.
pub fn executor_from_recipe(
    recipe: &dj_config::Recipe,
    registry: &dj_core::OpRegistry,
    fusion: bool,
) -> Result<Executor> {
    let ops = recipe.build_ops(registry)?;
    let output_format = match recipe.output_format.as_deref() {
        Some(name) => OutputFormat::from_name(name)?,
        None => OutputFormat::Jsonl,
    };
    Ok(Executor::new(ops).with_options(ExecOptions {
        num_workers: recipe.np,
        op_fusion: fusion,
        trace_examples: 0,
        shard_size: recipe.shard_size,
        memory_budget: recipe.memory_budget,
        spill_dir: recipe.spill_dir.as_ref().map(PathBuf::from),
        prefetch_depth: recipe.prefetch_depth.unwrap_or(DEFAULT_PREFETCH_DEPTH),
        input: recipe.input_path.clone(),
        output: recipe.output_path.as_ref().map(PathBuf::from),
        output_format,
        adaptive: recipe.adaptive,
        stats_dir: recipe.stats_dir.as_ref().map(PathBuf::from),
        prefix_cache: recipe.prefix_cache,
        on_error: match recipe.on_error.as_deref() {
            Some(name) => OnError::from_name(name)?,
            None => OnError::Fail,
        },
        max_error_ratio: recipe.max_error_ratio.unwrap_or(1.0),
        ..ExecOptions::default()
    }))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use dj_core::{Dataset, Mapper, Op, Sample, SampleContext};
    use dj_ops::builtin_registry;
    use dj_store::{CacheManager, CacheMode};

    fn knobs(memory_budget: Option<&str>, faults: Option<&str>) -> EnvKnobs {
        EnvKnobs {
            memory_budget: memory_budget.map(str::to_string),
            faults: faults.map(str::to_string),
        }
    }

    #[test]
    fn malformed_env_values_are_config_errors() {
        for raw in ["lots", "0", "-1", "1.5"] {
            let err = knobs(Some(raw), None).validate().unwrap_err();
            assert!(
                matches!(err, DjError::Config(_)),
                "{MEMORY_BUDGET_ENV}={raw}: {err:?}"
            );
        }
        for raw in [
            "seed:x",
            "nowhere.at.all:io",
            "store.frame.read:explode",
            "store.frame.read:io@0",
        ] {
            let err = knobs(None, Some(raw)).validate().unwrap_err();
            assert!(
                matches!(err, DjError::Config(_)),
                "{FAULTS_ENV}={raw}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_env_values_mean_unset() {
        for raw in ["", "  "] {
            let env = knobs(Some(raw), Some(raw));
            env.validate().unwrap();
            assert_eq!(env.memory_budget().unwrap(), None);
            assert!(env.faults().unwrap().is_none());
        }
        let env = knobs(Some(" 4096 "), Some("seed:3"));
        assert_eq!(env.memory_budget().unwrap(), Some(4096));
        assert!(env.faults().unwrap().is_some());
    }

    /// Counts the samples it is handed.
    struct Counting(AtomicUsize);

    impl Mapper for Counting {
        fn name(&self) -> &'static str {
            "counting_mapper"
        }
        fn process(&self, _: &mut Sample, _: &mut SampleContext) -> Result<bool> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(false)
        }
    }

    #[test]
    fn every_entry_point_validates_the_env_before_any_work() {
        let dir = std::env::temp_dir().join(format!("dj-env-validate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.jsonl");
        std::fs::write(&input, "{\"text\":\"a\"}\n").unwrap();
        let counting = Arc::new(Counting(AtomicUsize::new(0)));
        let cache = CacheManager::new(dir.join("cache"), 1, CacheMode::Cache);
        for env in [knobs(Some("lots"), None), knobs(None, Some("seed:x"))] {
            let exec =
                Executor::new(vec![Op::Mapper(counting.clone())]).with_options(ExecOptions {
                    input: Some(input.display().to_string()),
                    output: Some(dir.join("out")),
                    env,
                    ..ExecOptions::default()
                });
            let data = || Dataset::from_texts(["a", "b"]);
            for err in [
                exec.run(data()).err(),
                exec.run_with_cache(data(), &cache).err(),
                exec.run_io().err(),
            ] {
                assert!(matches!(err, Some(DjError::Config(_))), "{err:?}");
            }
        }
        assert_eq!(counting.0.load(Ordering::Relaxed), 0, "an op ran");
        assert!(!dir.join("cache").exists(), "a cache entry was written");
        assert!(!dir.join("out").exists(), "egress started");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn executor_from_recipe_builds() {
        let reg = builtin_registry();
        let recipe = dj_config::recipes::by_name("minimal-clean").unwrap();
        let exec = executor_from_recipe(&recipe, &reg, true).unwrap();
        let (out, _) = exec.run(Dataset::from_texts(["hello   world"])).unwrap();
        assert_eq!(out.get(0).unwrap().text(), "hello world");
    }

    #[test]
    fn default_options_use_available_parallelism() {
        let opts = ExecOptions::default();
        assert_eq!(opts.num_workers, default_parallelism());
        assert!(opts.num_workers >= 1);
        assert_eq!(opts.memory_budget, None);
        assert_eq!(opts.spill_dir, None);
        assert_eq!(opts.prefetch_depth, DEFAULT_PREFETCH_DEPTH);
    }
}
