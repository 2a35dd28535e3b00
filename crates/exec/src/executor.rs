//! The executor proper: plan the OP list, cut it into stages, and run each
//! stage over the dataset — in memory, spilled, or file to file — with
//! cache/checkpoint resume.
//!
//! See the crate docs for the execution model. What a stage *does* lives
//! in the `stage` and `barrier` modules; which shape the data is in is the
//! `data` module's business; this module only sequences them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dj_core::{write_json, Dataset, Deduplicator, DjError, Op, Result};
use dj_hash::{checksum64, fnv1a, hash64_seeded};
use dj_io::{CorpusReader, ErrorLedger, OutputFormat, ShardedWriter};
use dj_store::{CacheManager, ShardSpool};

use crate::data::{reader_feed, Sink, StageData};
use crate::fusion::{plan_fused, plan_unfused, Plan, PlanStep, Stage};
use crate::options::{ExecOptions, DEFAULT_IO_SHARD_SIZE};
use crate::report::RunReport;
use crate::runtime::JobControl;
use crate::stream::RunCtl;

/// Monotonic suffix so concurrent runs in one process never share a spill
/// directory.
static SPILL_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Pipeline executor over a fixed OP list.
#[derive(Clone)]
pub struct Executor {
    ops: Vec<Op>,
    /// Each op's identity ([`dj_config::Recipe::op_ids`]), what cache keys
    /// are made of. `None` for bare ops, which cannot be cached.
    op_ids: Option<Vec<u64>>,
    pub(crate) options: ExecOptions,
}

impl Executor {
    /// An executor over bare ops. It runs, but has no identities to key a
    /// cache with: [`Executor::run_with_cache`] needs one built by
    /// [`executor_from_recipe`](crate::executor_from_recipe).
    pub fn new(ops: Vec<Op>) -> Executor {
        Executor {
            ops,
            op_ids: None,
            options: ExecOptions::default(),
        }
    }

    /// The same executor with the recipe's op identities, one per op.
    pub(crate) fn with_op_ids(mut self, op_ids: Vec<u64>) -> Executor {
        self.op_ids = Some(op_ids);
        self
    }

    pub fn with_options(mut self, options: ExecOptions) -> Executor {
        self.options = options;
        self
    }

    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// The plan this executor will run (exposed for inspection/tests):
    /// static, whether or not [`ExecOptions::adaptive`] lets a stage
    /// reorder its commutable steps mid-run.
    pub fn plan(&self) -> Plan {
        if self.options.op_fusion {
            plan_fused(&self.ops)
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

    /// A fresh spill spool in the run's buffers, in a unique, run-private
    /// directory under the run's spill directory (or the system temp dir).
    pub(crate) fn new_spool(&self, slots: usize, ctl: &RunCtl) -> Result<ShardSpool> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let base = ctl.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!("dj-spill-{}-{seq}", std::process::id()));
        ShardSpool::create_pooled(dir, slots, ctl.buffers().clone())
    }

    /// Execute the pipeline over an in-memory dataset and return the
    /// result. Refuses a set [`ExecOptions::output`] (a
    /// [`DjError::Config`], before any work): egress is [`Executor::run_io`]
    /// and the runtime's jobs.
    pub fn run(&self, dataset: Dataset) -> Result<(Dataset, RunReport)> {
        self.run_returning(dataset, None)
    }

    /// Execute with cache/checkpoint support: resumes from the longest
    /// cached stage prefix and saves after every stage (§4.1.1). An entry's
    /// key is its content identity: the dataset's digest chained with the
    /// identity of every op up to the stage's last, so one cache root
    /// serves every recipe and input. Refuses a set
    /// [`ExecOptions::output`], like [`Executor::run`], and an executor
    /// built from bare ops, which has no identities to key entries with:
    /// both are a [`DjError::Config`] before any work.
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
    /// shard_size` samples however large the input is (see the crate
    /// docs). Stage caching is not applied on this path: a cache key
    /// chains from the input's digest, and a file corpus has none yet
    /// (only a resident dataset is digested).
    pub fn run_io(&self) -> Result<(Option<Dataset>, RunReport)> {
        self.sequence(None, None, Arc::default())
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
        let (out, report) = self.sequence(Some(dataset), cache, Arc::default())?;
        // Without an output directory the sequencer always materializes.
        Ok((out.unwrap_or_default(), report))
    }

    /// The one run sequencer, for `dataset` (`None`: the corpus named by
    /// [`ExecOptions::input`]) under the run's control block `job` (a
    /// runtime job's, or a direct run's own): plan → cache resume or
    /// ingest → the stage loop → ledger seal → egress or materialize. After
    /// ingest nothing here knows whether the input was a file: a resident
    /// dataset and a spooled corpus run the same loop, and
    /// [`ExecOptions::output`] set means manifest-tracked parts for both.
    pub(crate) fn sequence(
        &self,
        dataset: Option<Dataset>,
        cache: Option<&CacheManager>,
        job: Arc<JobControl>,
    ) -> Result<(Option<Dataset>, RunReport)> {
        let source = match dataset {
            Some(dataset) => Source::Resident(dataset),
            None => Source::Corpus(self.options.input.as_deref().ok_or_else(|| {
                DjError::Config("run_io requires ExecOptions::input (a path or glob)".into())
            })?),
        };
        let plan = self.plan();
        let stages = plan.stages();
        // A cache keys its entries by the resident input's digest; a
        // corpus on disk has none (`run_io` takes no cache).
        let cache = match (&source, cache) {
            (Source::Resident(dataset), Some(cm)) => Some((cm, self.stage_keys(dataset, &stages)?)),
            _ => None,
        };
        let start = Instant::now();
        let ledger = self.new_ledger()?;
        let mut ctl = RunCtl::new(job, Arc::clone(&ledger));
        // A cached run spools under its cache root: a spilled stage's spool
        // then becomes its entry by one rename.
        let root = cache.as_ref().map(|(cm, _)| cm.root().to_path_buf());
        ctl.spill_dir = root.or_else(|| self.options.spill_dir.clone());
        let budget = self.options.memory_budget;
        let mut report = RunReport {
            fused_groups: plan.fused_groups,
            stages: stages.len(),
            adaptive: self.options.adaptive,
            ..RunReport::default()
        };

        // The entry this run saved or resumed from last.
        let mut saved = None;
        let (mut data, first_stage) = match source {
            Source::Resident(dataset) => {
                ledger.note_seen(dataset.len() as u64);
                report.initial_samples = dataset.len();
                report.peak_bytes = dataset.approx_bytes();
                // Resume from the longest cached stage prefix. A corrupt or
                // unreadable entry must never fail the run — or reach it:
                // anything but a clean read of every slot against the seal
                // falls back to fresh execution (the §4.1.1 resilience goal).
                let resumed = cache.as_ref().and_then(|(cm, keys)| {
                    let (idx, entry) = cm.latest_match(keys, ctl.buffers()).ok()??;
                    let data = StageData::resume(entry, budget.unwrap_or(u64::MAX)).ok()?;
                    // Checkpoint mode retires it once the next stage saves.
                    saved = Some(keys[idx]);
                    report.spilled |= data.is_spilled();
                    report.resumed_steps = stages[..=idx].iter().map(Stage::step_count).sum();
                    Some((data, idx + 1))
                });
                resumed.unwrap_or_else(|| (StageData::resident(dataset), 0))
            }
            Source::Corpus(input) => {
                let parsed = plan.columns_touched();
                self.ingest(input, parsed, &stages, &ledger, &ctl, &mut report)?
            }
        };

        for (i, stage) in stages.iter().enumerate().skip(first_stage) {
            ctl.check()?;
            let next = next_barrier(&stages, i + 1);
            data = self.execute_stage(stage, next, data, budget, &ctl, &mut report)?;
            report.peak_bytes = report.peak_bytes.max(data.approx_bytes());
            if let Some((cm, keys)) = &cache {
                data.save(cm, keys[i], saved, &ctl)?;
                saved = Some(keys[i]);
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
                let writer = ShardedWriter::create(dir, OutputFormat::Jsonl)?;
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
    /// fingerprinted for the barrier that follows. The reader parses only
    /// the top-level fields `parsed` names (all of them for `None`); the
    /// rest are stored as the JSON text they were read as. Returns the
    /// spool and the number of stages it ran.
    fn ingest(
        &self,
        input: &str,
        parsed: Option<std::collections::BTreeSet<String>>,
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
        let feed = reader_feed(&reader, shard_size, parsed.as_ref());
        // Slot count 0: the spool grows with the stream — the corpus
        // length is unknown until it is dry.
        let sink = Sink::Spool(self.new_spool(0, ctl)?, None);
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

    /// Each stage's cache key: FNV-1a chained from the input's digest
    /// over the identity of every op up to the last one the stage covers,
    /// in recipe order. Stages are cut only at barriers, which never move,
    /// so each covers a contiguous run of the recipe whatever fusion or a
    /// replan did inside it: the key reads nothing of the plan but
    /// where its stages end, and every plan of one recipe shares entries.
    fn stage_keys(&self, dataset: &Dataset, stages: &[Stage]) -> Result<Vec<u64>> {
        let op_ids = self.op_ids.as_deref().ok_or_else(|| {
            DjError::Config(
                "run_with_cache needs op identities to key its entries: build the executor \
                 with executor_from_recipe"
                    .into(),
            )
        })?;
        let mut op_ids = op_ids.iter();
        let mut chain = input_digest(dataset);
        Ok(stages
            .iter()
            .map(|stage| {
                for id in op_ids.by_ref().take(stage.op_count()) {
                    chain = fnv1a(&[chain.to_le_bytes(), id.to_le_bytes()].concat());
                }
                chain
            })
            .collect())
    }

    /// Shard count for the spill cut: honor an explicit `shard_size`,
    /// otherwise size shards so the streaming live set (one shard per
    /// worker, plus two) stays under the budget.
    fn spill_shard_count(&self, len: usize, bytes: usize, budget: u64) -> usize {
        if let Some(size) = self.options.shard_size {
            return len.div_ceil(size.max(1)).clamp(1, len);
        }
        let workers = self.options.num_workers.max(1) as u64;
        let avg = ((bytes / len).max(1)) as u64;
        let per_shard_bytes = (budget / (workers + 2)).max(1);
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
        ctl: &RunCtl,
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
        data.spill(self.new_spool(shard_count, ctl)?, shard_count, upcoming)
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
                let data = self.maybe_spill(data, budget, None, ctl, report)?;
                self.run_pipeline_stage(steps, next_dedup, data, ctl, report)
            }
            Stage::Barrier { dedup, .. } => {
                let data = self.maybe_spill(data, budget, Some(dedup.as_ref()), ctl, report)?;
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

/// A resident input's identity, the first link of every cache key:
/// [`checksum64`]'s hash folded over the samples' canonical JSON lines,
/// each line seeded with the digest of the lines before it.
fn input_digest(dataset: &Dataset) -> u64 {
    let mut line = String::new();
    dataset.iter().fold(checksum64(&[]), |digest, sample| {
        line.clear();
        // Writing into a String cannot fail.
        let _ = write_json(&mut line, sample.value());
        line.push('\n');
        hash64_seeded(line.as_bytes(), digest)
    })
}

#[cfg(test)]
#[path = "executor_tests.rs"]
mod tests;
