//! The executor proper: plan the OP list, cut it into stages, and run each
//! stage over the dataset — in memory, spilled, or file to file — with
//! cache/checkpoint resume and the adaptive planner's measure → tune →
//! persist loop around it.
//!
//! See the crate docs for the execution model. What a stage *does* lives
//! in the `stage` and `barrier` modules; which shape the data is in is the
//! `data` module's business; this module only sequences them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dj_core::{faults, Dataset, Deduplicator, DjError, Op, Result};
use dj_hash::fnv1a;
use dj_io::{CorpusReader, ErrorLedger, ShardedWriter};
use dj_store::{CacheManager, ShardSpool, STATS_SIDECAR_FILE};

use crate::cost::CostModel;
use crate::data::{reader_feed, Sink, StageData, SPILL_CODEC};
use crate::fusion::{plan_fused_measured, plan_unfused, Plan, PlanStep, Stage};
use crate::options::{ExecOptions, DEFAULT_IO_SHARD_SIZE, DEFAULT_PREFETCH_DEPTH};
use crate::report::RunReport;
use crate::runtime::JobControl;
use crate::stream::RunCtl;

/// Auto-tune target: size shards so one shard costs roughly this much
/// wall time (balances scheduling overhead against work-stealing
/// granularity).
const SHARD_TARGET_SECONDS: f64 = 0.05;

/// Tunable keys recorded in the stats sidecar.
const TUNE_SAMPLES_PER_SEC: &str = "samples_per_sec";
const TUNE_SHARD_MS: &str = "shard_ms";

/// Monotonic suffix so concurrent runs in one process never share a spill
/// directory.
static SPILL_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Pipeline executor over a fixed OP list.
#[derive(Clone)]
pub struct Executor {
    ops: Vec<Op>,
    pub(crate) options: ExecOptions,
}

impl Executor {
    pub fn new(ops: Vec<Op>) -> Executor {
        Executor {
            ops,
            options: ExecOptions::default(),
        }
    }

    pub fn with_options(mut self, options: ExecOptions) -> Executor {
        self.options = options;
        self
    }

    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// The plan this executor will run (exposed for inspection/tests).
    /// Static ranking — the adaptive path goes through [`Executor::plan_adaptive`].
    pub fn plan(&self) -> Plan {
        self.plan_adaptive(None)
    }

    /// The plan with measured ranking from a cost model (when fusion is
    /// on; unfused plans never reorder).
    pub fn plan_adaptive(&self, model: Option<&CostModel>) -> Plan {
        if self.options.op_fusion {
            plan_fused_measured(&self.ops, model)
        } else {
            plan_unfused(&self.ops)
        }
    }

    /// The error ledger for one run attempt: fresh counters per attempt
    /// (a retry re-processes every record), quarantine sidecar attached
    /// next to the egress manifest when one is configured.
    fn new_ledger(&self) -> Result<Arc<ErrorLedger>> {
        let ledger = Arc::new(ErrorLedger::new(
            self.options.on_error,
            self.options.max_error_ratio,
        ));
        if let Some(dir) = &self.options.output {
            ledger.attach_dir(dir)?;
        }
        Ok(ledger)
    }

    /// A fresh spill spool.
    pub(crate) fn new_spool(&self, slots: usize) -> Result<ShardSpool> {
        ShardSpool::create(self.fresh_spill_dir(), slots, SPILL_CODEC)
    }

    /// Where the cost-model sidecar persists, if anywhere: an explicit
    /// `stats_dir`, else the attached cache's root.
    fn stats_path(&self, cache: Option<&CacheManager>) -> Option<PathBuf> {
        match &self.options.stats_dir {
            Some(dir) => Some(dir.join(STATS_SIDECAR_FILE)),
            None => cache.map(CacheManager::stats_sidecar_path),
        }
    }

    /// Auto-tune unset performance knobs from a warm model's measured
    /// throughput: a tuned executor clone, or `None` when nothing changed
    /// (cold model, or every knob explicit).
    fn autotuned(&self, model: Option<&CostModel>) -> Option<Executor> {
        let model = model.filter(|m| m.is_warm())?;
        let mut options = self.options.clone();
        if options.shard_size.is_none() {
            // Size shards to ~SHARD_TARGET_SECONDS of measured work each:
            // big enough to amortize scheduling, small enough that work
            // stealing can absorb stragglers.
            let sps = model.tunable(TUNE_SAMPLES_PER_SEC).filter(|s| *s > 0.0);
            options.shard_size =
                sps.map(|sps| ((sps * SHARD_TARGET_SECONDS) as usize).clamp(64, 1 << 16));
        }
        // Tiny measured shards starve workers on handoff latency — deepen
        // the buffer. Chunky shards already overlap IO at 2.
        if options.prefetch_depth == DEFAULT_PREFETCH_DEPTH
            && model.tunable(TUNE_SHARD_MS).is_some_and(|ms| ms < 8.0)
        {
            options.prefetch_depth = 4;
        }
        let tuned = options.shard_size != self.options.shard_size
            || options.prefetch_depth != self.options.prefetch_depth;
        tuned.then(|| Executor {
            ops: self.ops.clone(),
            options,
        })
    }

    /// Execute the pipeline over an in-memory dataset and return the
    /// result. Refuses a set [`ExecOptions::output`] (a
    /// [`DjError::Config`], before any work): egress is [`Executor::run_io`]
    /// and the runtime's jobs.
    pub fn run(&self, dataset: Dataset) -> Result<(Dataset, RunReport)> {
        self.run_returning(dataset, None)
    }

    /// Execute with cache/checkpoint support: resumes from the longest
    /// cached stage prefix and saves after every stage (§4.1.1). Refuses a
    /// set [`ExecOptions::output`], like [`Executor::run`].
    pub fn run_with_cache(
        &self,
        dataset: Dataset,
        cache: &CacheManager,
    ) -> Result<(Dataset, RunReport)> {
        self.run_returning(dataset, Some(cache))
    }

    /// Execute the pipeline file-to-file: stream the corpus named by
    /// [`ExecOptions::input`] (a JSONL/CSV path or glob) through ingest,
    /// every stage and egress, and — when [`ExecOptions::output`] is set —
    /// write the result as manifest-tracked shard parts, returning `None`
    /// in place of a dataset. The resident set stays ≤ `num_workers ×
    /// prefetch_depth × shard_size` samples however large the input is
    /// (see the crate docs). Stage caching is not applied on this path —
    /// file-backed runs are keyed by their input files, not by an
    /// in-memory dataset.
    pub fn run_io(&self) -> Result<(Option<Dataset>, RunReport)> {
        self.run_adaptive(None, None, None)
    }

    /// `run` / `run_with_cache`: the dataset comes back, so there is no
    /// egress directory to write.
    fn run_returning(
        &self,
        dataset: Dataset,
        cache: Option<&CacheManager>,
    ) -> Result<(Dataset, RunReport)> {
        if let Some(dir) = &self.options.output {
            return Err(DjError::Config(format!(
                "ExecOptions::output ({}) is set, but run and run_with_cache return the \
                 dataset: write it with run_io or a runtime job",
                dir.display()
            )));
        }
        let (out, report) = self.run_adaptive(Some(dataset), cache, None)?;
        // Without an output directory the sequencer always materializes.
        Ok((out.unwrap_or_default(), report))
    }

    /// One adaptive-aware run of `dataset` (`None`: the corpus named by
    /// [`ExecOptions::input`]) for the owning runtime `job`, if any: load
    /// the cost model (when adaptive is in force and a sidecar location
    /// exists), auto-tune unset knobs from it, sequence the run, then fold
    /// its measurements back in and persist. Sidecar IO is advisory — it
    /// can never fail the run.
    pub(crate) fn run_adaptive(
        &self,
        dataset: Option<Dataset>,
        cache: Option<&CacheManager>,
        job: Option<Arc<JobControl>>,
    ) -> Result<(Option<Dataset>, RunReport)> {
        // The plan in force for this attempt. Retry attempts share its
        // `Arc`, so a fault spent on one stays spent on the next.
        let _faults = self.options.faults.clone().map(faults::install);
        let adaptive = self.options.adaptive;
        let stats_path = self.stats_path(cache).filter(|_| adaptive);
        let mut model = adaptive.then(|| match &stats_path {
            Some(p) => CostModel::load(p),
            None => CostModel::new(),
        });
        let tuned = self.autotuned(model.as_ref());
        let exec = tuned.as_ref().unwrap_or(self);
        let (out, mut report) = exec.sequence(dataset, cache, job, model.as_ref())?;
        report.adaptive = adaptive;
        // What the tuner overrode, if anything.
        let tuned = |ours: Option<usize>, theirs: Option<usize>| theirs.filter(|_| ours != theirs);
        report.tuned_shard_size = tuned(self.options.shard_size, exec.options.shard_size);
        report.tuned_prefetch_depth = tuned(
            Some(self.options.prefetch_depth),
            Some(exec.options.prefetch_depth),
        );
        if let Some(m) = model.as_mut() {
            m.observe_report(&report);
            record_tunables(m, &report);
            if let Some(p) = &stats_path {
                let _ = m.save(p);
            }
        }
        Ok((out, report))
    }

    /// The one run sequencer: plan → cache resume or ingest → the stage
    /// loop → ledger seal → egress or materialize. `model` only
    /// influences plan-time step order. After ingest nothing here knows
    /// whether the input was a file: a resident dataset and a spooled
    /// corpus run the same loop, and [`ExecOptions::output`] set means
    /// manifest-tracked parts for both.
    fn sequence(
        &self,
        dataset: Option<Dataset>,
        cache: Option<&CacheManager>,
        job: Option<Arc<JobControl>>,
        model: Option<&CostModel>,
    ) -> Result<(Option<Dataset>, RunReport)> {
        self.validated_depth()?;
        let source = match dataset {
            Some(dataset) => Source::Resident(dataset),
            None => Source::Corpus(self.options.input.as_deref().ok_or_else(|| {
                DjError::Config("run_io requires ExecOptions::input (a path or glob)".into())
            })?),
        };
        let plan = self.plan_adaptive(model);
        let prefix = self.options.prefix_cache && cache.is_some();
        let stages = if prefix {
            plan.stages_per_step()
        } else {
            plan.stages()
        };
        let cache = cache.map(|cm| (cm, stage_cache_keys(&stages, prefix)));
        let start = Instant::now();
        let ledger = self.new_ledger()?;
        let ctl = RunCtl::new(job, Some(Arc::clone(&ledger)));
        let budget = self.options.memory_budget;
        let mut report = RunReport {
            fused_groups: plan.fused_groups,
            stages: stages.len(),
            measured_steps: plan.measured_steps,
            ..RunReport::default()
        };

        let (mut data, first_stage) = match source {
            Source::Resident(dataset) => {
                ledger.note_seen(dataset.len() as u64);
                report.initial_samples = dataset.len();
                report.peak_bytes = dataset.approx_bytes();
                // Resume from the longest cached stage prefix. A corrupt or
                // unreadable entry must never fail the run — or reach it:
                // its frames are verified as they are pulled, and anything
                // but a clean read of all of them falls back to fresh
                // execution (the §4.1.1 resilience goal).
                let resumed = cache.as_ref().and_then(|(cm, keys)| {
                    let (idx, entry) = cm.latest_match(keys).ok()??;
                    let budget = budget.unwrap_or(u64::MAX);
                    let data = StageData::from_cached(entry, budget, || self.new_spool(0)).ok()?;
                    report.spilled |= data.is_spilled();
                    report.resumed_steps = stages[..=idx].iter().map(Stage::step_count).sum();
                    Some((data, idx + 1))
                });
                resumed.unwrap_or_else(|| (StageData::resident(dataset), 0))
            }
            Source::Corpus(input) => self.ingest(input, &stages, &ledger, &ctl, &mut report)?,
        };

        for (i, stage) in stages.iter().enumerate().skip(first_stage) {
            ctl.check()?;
            let next = next_barrier(&stages, i + 1);
            data = self.execute_stage(stage, next, data, budget, &ctl, &mut report)?;
            report.peak_bytes = report.peak_bytes.max(data.approx_bytes());
            if let Some((cm, keys)) = &cache {
                data.save(cm, i, &keys[i].1)?;
            }
        }
        report.final_samples = data.len();

        // Seal the error policy before egress: the budget check fails
        // the run *before* a manifest is written, and a sealed
        // quarantine sidecar lands next to the manifest on success.
        ledger.finish()?;
        report.records_skipped = ledger.records_skipped();
        report.records_quarantined = ledger.records_quarantined();
        report.error_ratio = ledger.error_ratio();

        // Egress: manifest-tracked shard parts, or materialize for the
        // caller when no output directory is configured.
        let egress_start = Instant::now();
        let out = match &self.options.output {
            Some(dir) => {
                let writer = ShardedWriter::create(dir, self.options.output_format)?;
                data.egress(&writer, &self.options, &ctl)?;
                report.egress_bytes = writer.bytes_written();
                writer.finish()?;
                None
            }
            None => Some(data.into_dataset()?),
        };
        report.egress_duration = egress_start.elapsed();
        report.peak_resident_samples = ctl.peak_samples();
        report.peak_resident_bytes = ctl.peak_bytes();
        report.total_duration = start.elapsed();
        Ok((out, report))
    }

    /// Ingest the corpus at `input`: the plan's first pipeline stage is
    /// driven over shards cut off a corpus reader into a growing spool (a
    /// leading barrier takes the raw shards instead), and each shard is
    /// fingerprinted for the barrier that follows. Returns the spool and
    /// the number of stages it ran.
    fn ingest(
        &self,
        input: &str,
        stages: &[Stage],
        ledger: &Arc<ErrorLedger>,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<(StageData, usize)> {
        let start = Instant::now();
        let shard_size = self
            .options
            .shard_size
            .unwrap_or(DEFAULT_IO_SHARD_SIZE)
            .max(1);
        let reader = CorpusReader::from_pattern(input)?.with_ledger(Arc::clone(ledger));
        let (steps, ran): (&[PlanStep], usize) = match stages.first() {
            Some(Stage::Pipeline { steps, .. }) => (steps, 1),
            _ => (&[], 0),
        };
        let reader = Mutex::new((reader, 0));
        let feed = reader_feed(&reader, shard_size);
        // Slot count 0: the spool grows with the stream — the corpus
        // length is unknown until it is dry.
        let sink = Sink::Spool(self.new_spool(0)?, None);
        let fp_dedup = next_barrier(stages, ran);
        let data = self.drive_stage(steps, fp_dedup, &feed, sink, ctl, report)?;
        drop(feed);
        let (reader, _) = reader.into_inner().unwrap_or_else(PoisonError::into_inner);
        report.spilled = true;
        report.ingest_bytes = reader.bytes_read();
        report.initial_samples = reader.samples_read() as usize;
        report.ingest_duration = start.elapsed();
        Ok((data, ran))
    }

    /// The prefetch depth in force, validated: a depth of zero would
    /// deadlock the streaming machinery, so it is a configuration error.
    fn validated_depth(&self) -> Result<usize> {
        if self.options.prefetch_depth < 1 {
            return Err(DjError::Config(
                "prefetch_depth must be >= 1 (2 = double buffering)".into(),
            ));
        }
        Ok(self.options.prefetch_depth)
    }

    /// A unique, run-private directory for one spill spool.
    fn fresh_spill_dir(&self) -> PathBuf {
        let base = self
            .options
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        base.join(format!(
            "dj-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Shard count for the spill cut: honor an explicit `shard_size`,
    /// otherwise size shards so the streaming live set (`prefetch_depth`
    /// per worker, plus two) stays under the budget.
    fn spill_shard_count(&self, len: usize, bytes: usize, budget: u64) -> usize {
        if let Some(size) = self.options.shard_size {
            return len.div_ceil(size.max(1)).clamp(1, len);
        }
        let workers = self.options.num_workers.max(1) as u64;
        let depth = self.options.prefetch_depth.max(1) as u64;
        let avg = ((bytes / len).max(1)) as u64;
        let per_shard_bytes = (budget / (workers * depth + 2)).max(1);
        let shard_size = ((per_shard_bytes / avg).max(1)) as usize;
        len.div_ceil(shard_size).clamp(1, len)
    }

    /// Spill in-memory shards to a shard spool when they exceed the
    /// budget (`dj-store`'s `approx_bytes` estimate drives the decision;
    /// already-spilled data holds no heap and passes through).
    ///
    /// `upcoming` is the stage about to consume the spool: when it is a
    /// dedup barrier, each shard is fingerprinted *as its frame is
    /// written*, so the barrier skips its hash pass entirely.
    fn maybe_spill(
        &self,
        data: StageData,
        budget: Option<u64>,
        upcoming: Option<&dyn Deduplicator>,
        report: &mut RunReport,
    ) -> Result<StageData> {
        let Some(budget) = budget else {
            return Ok(data);
        };
        let (len, bytes) = (data.len(), data.approx_bytes());
        if len == 0 || bytes as u64 <= budget {
            return Ok(data);
        }
        let shard_count = self.spill_shard_count(len, bytes, budget);
        report.spilled = true;
        data.spill(self.new_spool(shard_count)?, shard_count, upcoming)
    }

    /// Run one stage over the dataset, spilling first if the budget
    /// demands it. `next_dedup` is the following stage's deduplicator, if
    /// any — spilled pipeline stages fingerprint their output shards for
    /// it as the frames are written (fingerprint-on-ingest), so the
    /// barrier that follows never reads a frame.
    fn execute_stage(
        &self,
        stage: &Stage,
        next_dedup: Option<&dyn Deduplicator>,
        data: StageData,
        budget: Option<u64>,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<StageData> {
        match stage {
            Stage::Pipeline { steps, .. } => {
                let data = self.maybe_spill(data, budget, None, report)?;
                self.run_pipeline_stage(steps, next_dedup, data, ctl, report)
            }
            Stage::Barrier { dedup, .. } => {
                let data = self.maybe_spill(data, budget, Some(dedup.as_ref()), report)?;
                self.run_dedup_stage(dedup.as_ref(), data, ctl, report)
            }
        }
    }
}

/// What a run starts from.
enum Source<'a> {
    /// A dataset handed in by the caller.
    Resident(Dataset),
    /// The corpus named by [`ExecOptions::input`].
    Corpus(&'a str),
}

/// The deduplicator of `stages[idx]`, if that stage is a barrier.
fn next_barrier(stages: &[Stage], idx: usize) -> Option<&dyn Deduplicator> {
    match stages.get(idx) {
        Some(Stage::Barrier { dedup, .. }) => Some(dedup.as_ref()),
        _ => None,
    }
}

/// Cache keys for a stage sequence.
///
/// Plain stage names by default (the status-quo keying). With prefix
/// caching, each key is a chained FNV-1a fingerprint of every stage name
/// up to and including this one, rendered as `p{chain:016x}` — the key
/// encodes the *whole op prefix*, so editing, inserting or removing op
/// `k` changes the keys of `k` and everything after it while ops before
/// `k` keep hitting their entries, and two recipes sharing a prefix (and
/// a cache space) can never collide on a same-named step at a different
/// position.
fn stage_cache_keys(stages: &[Stage], prefix: bool) -> Vec<(usize, String)> {
    if !prefix {
        return stages
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.name()))
            .collect();
    }
    let mut chain = 0u64;
    stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut bytes = chain.to_le_bytes().to_vec();
            bytes.extend_from_slice(s.name().as_bytes());
            chain = fnv1a(&bytes);
            (i, format!("p{chain:016x}"))
        })
        .collect()
}

/// Fold this run's whole-pipeline throughput figures into the model's
/// tunables — the numbers the next run's auto-tuner sizes shards and
/// prefetch depth from.
fn record_tunables(model: &mut CostModel, report: &RunReport) {
    let secs = report.total_duration.as_secs_f64();
    if secs <= 0.0 {
        return;
    }
    if report.initial_samples > 0 {
        model.set_tunable(TUNE_SAMPLES_PER_SEC, report.initial_samples as f64 / secs);
    }
    if report.shards > 0 {
        model.set_tunable(TUNE_SHARD_MS, secs * 1000.0 / report.shards as f64);
    }
}

#[cfg(test)]
#[path = "executor_tests.rs"]
mod tests;
