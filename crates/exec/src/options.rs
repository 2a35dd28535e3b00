//! Executor configuration: [`ExecOptions`] and the recipe → executor
//! bridge. Nothing here reads the environment: a run's configuration is
//! its recipe, or these options.

use std::path::PathBuf;

use dj_core::{OnError, Result};

use crate::executor::Executor;

/// How many shards to cut per worker when `shard_size` is on auto.
/// Over-partitioning lets fast workers steal extra shards (morsel-driven
/// scheduling) instead of idling at the stage join.
const AUTO_SHARDS_PER_WORKER: usize = 4;

/// Executor configuration. A fault plan is not among it: a plan is the
/// process's, installed by its host ([`dj_core::faults`]) around
/// whatever runs it faults, so every run and job in the process sees it.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Number of worker threads (the recipe's `np`).
    pub num_workers: usize,
    /// Enable OP fusion + reordering (§6).
    pub op_fusion: bool,
    /// Target samples per shard. `None` = auto: cut
    /// `num_workers * 4` shards so workers can steal work from stragglers.
    pub shard_size: Option<usize>,
    /// Peak dataset bytes the engine may keep in memory. When the estimated
    /// dataset size exceeds this, shards spill to disk and stages stream
    /// them, one live shard per worker (out-of-core mode). `None`
    /// disables spilling. A [`Runtime`](crate::Runtime) with a global
    /// budget sets each job's to its share, or keeps a tighter one.
    pub memory_budget: Option<u64>,
    /// Directory for spilled shard frames; `None` = the system temp dir. A
    /// cached run spills under its cache root instead (a spool becomes its
    /// entry by a rename). Each run creates and removes its own subdirectories.
    pub spill_dir: Option<PathBuf>,
    /// Input corpus for [`Executor::run_io`] and
    /// [`Runtime::submit_io`](crate::Runtime::submit_io): a file path or
    /// glob (`data/*.jsonl`) of JSONL/CSV files, streamed and cut into
    /// `shard_size` shards without ever materializing the corpus. A
    /// resident dataset handed to a run is its input instead.
    pub input: Option<String>,
    /// Egress directory: the processed dataset is written as
    /// manifest-tracked JSONL parts (see `dj_io::ShardedWriter`) instead
    /// of being returned in memory — whatever the input, for
    /// [`Executor::run_io`] and every runtime job. [`Executor::run`] and
    /// [`Executor::run_with_cache`] return the dataset, so they refuse a
    /// set `output` with a [`DjError::Config`](dj_core::DjError::Config)
    /// before any work.
    pub output: Option<PathBuf>,
    /// Mid-run replanning (recipe `adaptive:`): each pipeline stage —
    /// the ingest stage of a corpus run too — measures its first shards
    /// and, once, re-ranks its commutable steps cheapest-and-most-selective
    /// first for the shards after them. Output is byte-identical to the
    /// static plan; the per-op report is not (which filter saw a sample
    /// first depends on timing), so the default is off. Nothing measured
    /// outlives the run.
    pub adaptive: bool,
    /// What to do when a single record fails — a malformed ingest line
    /// or a sample an OP rejects. `Fail` (default) aborts the run;
    /// `Skip` drops the record; `Quarantine` drops it and preserves it
    /// in a checksummed sidecar next to the egress manifest.
    pub on_error: OnError,
    /// Error budget for `Skip`/`Quarantine`: the run fails once
    /// `(skipped + quarantined) / records_seen` exceeds this ratio.
    /// `1.0` (default) never trips.
    pub max_error_ratio: f64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            num_workers: default_parallelism(),
            op_fusion: true,
            shard_size: None,
            memory_budget: None,
            spill_dir: None,
            input: None,
            output: None,
            adaptive: false,
            on_error: OnError::Fail,
            max_error_ratio: 1.0,
        }
    }
}

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

/// Build an executor straight from a recipe + registry, threading the
/// recipe's `np`, `shard_size` and out-of-core knobs through, and handing
/// it each op's identity ([`Recipe::op_ids`](dj_config::Recipe::op_ids)),
/// which [`Executor::run_with_cache`] keys entries with.
pub fn executor_from_recipe(
    recipe: &dj_config::Recipe,
    registry: &dj_core::OpRegistry,
    fusion: bool,
) -> Result<Executor> {
    let ops = recipe.build_ops(registry)?;
    let exec = Executor::new(ops).with_op_ids(recipe.op_ids());
    Ok(exec.with_options(ExecOptions {
        num_workers: recipe.np,
        op_fusion: fusion,
        shard_size: recipe.shard_size,
        memory_budget: recipe.memory_budget,
        spill_dir: recipe.spill_dir.as_ref().map(PathBuf::from),
        input: recipe.input_path.clone(),
        output: recipe.output_path.as_ref().map(PathBuf::from),
        adaptive: recipe.adaptive,
        on_error: match recipe.on_error.as_deref() {
            Some(name) => OnError::from_name(name)?,
            None => OnError::Fail,
        },
        max_error_ratio: recipe.max_error_ratio.unwrap_or(1.0),
    }))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use dj_core::{Dataset, DjError, Mapper, Op, Sample, SampleContext};
    use dj_ops::builtin_registry;
    use dj_store::{CacheManager, CacheMode};

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
    fn run_and_run_with_cache_refuse_an_output_before_any_work() {
        let dir = std::env::temp_dir().join(format!("dj-run-output-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let counting = Arc::new(Counting(AtomicUsize::new(0)));
        let cache = CacheManager::new(dir.join("cache"), CacheMode::Cache);
        let exec = Executor::new(vec![Op::Mapper(counting.clone())])
            .with_op_ids(vec![1])
            .with_options(ExecOptions {
                output: Some(dir.join("out")),
                ..ExecOptions::default()
            });
        let data = || Dataset::from_texts(["a", "b"]);
        for err in [
            exec.run(data()).err(),
            exec.run_with_cache(data(), &cache).err(),
        ] {
            assert!(matches!(err, Some(DjError::Config(_))), "{err:?}");
        }
        assert_eq!(counting.0.load(Ordering::Relaxed), 0, "an op ran");
        assert!(!dir.exists(), "a file was written");
    }

    /// Bare ops carry no identity, so there is nothing to key an entry
    /// with: a cached run of them is refused, whatever the mode, before an
    /// op runs or the cache root is made.
    #[test]
    fn run_with_cache_refuses_bare_ops_before_any_work() {
        let dir = std::env::temp_dir().join(format!("dj-run-bare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let counting = Arc::new(Counting(AtomicUsize::new(0)));
        for mode in [CacheMode::Cache, CacheMode::Checkpoint] {
            let cache = CacheManager::new(dir.join("cache"), mode);
            let exec = Executor::new(vec![Op::Mapper(counting.clone())]);
            let err = exec.run_with_cache(Dataset::from_texts(["a", "b"]), &cache);
            let err = err.err();
            assert!(matches!(err, Some(DjError::Config(_))), "{err:?}");
            assert!(format!("{err:?}").contains("executor_from_recipe"));
        }
        assert_eq!(counting.0.load(Ordering::Relaxed), 0, "an op ran");
        assert!(!dir.exists(), "a file was written");
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
    }
}
