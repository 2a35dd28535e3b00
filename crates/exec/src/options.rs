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

/// Environment override for [`ExecOptions::memory_budget`] (bytes). Lets CI
/// force the spill path through the whole test suite without touching any
/// recipe (`DJ_MEMORY_BUDGET=1 cargo test`).
pub const MEMORY_BUDGET_ENV: &str = "DJ_MEMORY_BUDGET";

/// Environment override forcing [`ExecOptions::adaptive`] on (`1`, `true`
/// or `yes`; anything else leaves the option as configured). Lets CI run
/// the whole suite with adaptive planning live (`DJ_ADAPTIVE=1 cargo
/// test`).
///
/// Env-forced adaptive enables every *run-local* adaptation — mid-run
/// re-planning, measured barrier gating, model accumulation — all of
/// which are cache-key-neutral and output-identical. Cross-run sidecar
/// persistence (which lets plan-time step order change between runs, and
/// therefore changes stage cache keys) additionally requires an explicit
/// opt-in: `ExecOptions::adaptive = true` with a cache attached, or an
/// explicit [`ExecOptions::stats_dir`].
pub const ADAPTIVE_ENV: &str = "DJ_ADAPTIVE";

/// Environment override forcing [`ExecOptions::columnar`] on (`1`, `true`
/// or `yes`; anything else leaves the option as configured). Lets CI run
/// the whole suite over columnar `DJSC` spill frames with field-projection
/// pushdown (`DJ_COLUMNAR=1 cargo test`). Output is byte-identical to the
/// row format, so the override is safe suite-wide.
pub const COLUMNAR_ENV: &str = "DJ_COLUMNAR";

/// Environment override routing [`Executor::run`] through the
/// process-wide service runtime (`1`/`true`/`yes`): the dataset is
/// submitted as a job to [`crate::runtime::global_runtime`] and executes
/// on the shared persistent worker pool instead of ad-hoc scoped threads.
/// Output is byte-identical to a direct run, so CI can exercise the
/// pooled path suite-wide (`DJ_RUNTIME=1 cargo test`).
pub const RUNTIME_ENV: &str = "DJ_RUNTIME";

/// Environment knob installing a deterministic fault plan for the run
/// (see [`dj_core::faults`] for the grammar: `seed:N` and/or
/// `site:kind[@n]` clauses). Snapshotted like every other knob; a
/// malformed plan is a hard config error. The parsed plan is resolved
/// once per options value, so retry attempts share one plan — and its
/// hit counters — and a transient injected fault fires once, not once
/// per attempt.
pub const FAULTS_ENV: &str = "DJ_FAULTS";

/// A one-shot snapshot of every executor env knob, captured when
/// [`ExecOptions`] is constructed.
///
/// The knobs used to be read straight from the environment at varying
/// points mid-run, which has two failure modes the service runtime makes
/// acute: (a) a long-lived `dj serve` process would hand different jobs
/// different views if the environment changed between reads, and (b) a
/// malformed value was silently ignored by some knobs (`DJ_ADAPTIVE=typo`
/// meant "off") while a hard error in others. The snapshot pins the view
/// per-options-construction, and [`EnvKnobs::validate`] makes every
/// malformed value a hard [`DjError::Config`].
#[derive(Debug, Clone, Default)]
pub struct EnvKnobs {
    memory_budget: Option<String>,
    adaptive: Option<String>,
    columnar: Option<String>,
    runtime: Option<String>,
    faults: Option<String>,
}

impl EnvKnobs {
    /// Snapshot the current environment.
    pub fn capture() -> EnvKnobs {
        let grab = |name: &str| std::env::var(name).ok();
        EnvKnobs {
            memory_budget: grab(MEMORY_BUDGET_ENV),
            adaptive: grab(ADAPTIVE_ENV),
            columnar: grab(COLUMNAR_ENV),
            runtime: grab(RUNTIME_ENV),
            faults: grab(FAULTS_ENV),
        }
    }

    /// Parse a boolean force-on knob: `1`/`true`/`yes` forces the option
    /// on, unset/empty/`0`/`false`/`no` leaves it as configured, anything
    /// else is a hard config error.
    fn flag(raw: &Option<String>, name: &str) -> Result<bool> {
        match raw.as_deref().map(str::trim) {
            None | Some("" | "0" | "false" | "no") => Ok(false),
            Some("1" | "true" | "yes") => Ok(true),
            Some(junk) => Err(DjError::Config(format!(
                "{name} must be one of 1/true/yes/0/false/no, got `{junk}`"
            ))),
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

    /// Whether `DJ_ADAPTIVE` forces adaptive planning on.
    pub fn adaptive(&self) -> Result<bool> {
        Self::flag(&self.adaptive, ADAPTIVE_ENV)
    }

    /// Whether `DJ_COLUMNAR` forces columnar spill frames on.
    pub fn columnar(&self) -> Result<bool> {
        Self::flag(&self.columnar, COLUMNAR_ENV)
    }

    /// Whether `DJ_RUNTIME` routes `run` through the service runtime.
    pub fn runtime(&self) -> Result<bool> {
        Self::flag(&self.runtime, RUNTIME_ENV)
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
        self.adaptive()?;
        self.columnar()?;
        self.runtime()?;
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
    /// knob auto-tuning. Also forced on by the `DJ_ADAPTIVE` env var
    /// (see [`ADAPTIVE_ENV`] for what the env force does *not* enable).
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
    /// Store spilled shards as columnar `DJSC` frames and push field
    /// projections down into the spill reads: each pipeline stage decodes
    /// only the columns its OPs' declared footprints
    /// ([`dj_core::Mapper::fields_read`] and friends) name, splicing every
    /// untouched column through byte-for-byte. Output is byte-identical
    /// to the row format. Also forced on by the `DJ_COLUMNAR` env var.
    pub columnar: bool,
    /// Snapshot of the executor env knobs, captured when these options
    /// were constructed. All env reads go through this snapshot so a
    /// long-lived service process gives every job a consistent view.
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
            columnar: false,
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
        columnar: recipe.columnar,
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
    use super::*;
    use dj_core::Dataset;
    use dj_ops::builtin_registry;

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
