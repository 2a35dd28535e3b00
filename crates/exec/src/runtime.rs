//! # Service runtime — persistent multi-tenant job scheduling
//!
//! The paper positions Data-Juicer as a *one-stop system*: many recipes,
//! many users, one deployment. This module is that deployment surface for
//! the Rust engine — a long-lived [`Runtime`] that accepts concurrent job
//! submissions, executes them over the process-wide persistent
//! [`WorkerPool`](dj_core::WorkerPool) (no per-pass thread spawning), and
//! arbitrates memory between tenants:
//!
//! * **Admission control** — at most [`RuntimeConfig::max_jobs`] jobs run
//!   at once; further submissions queue FIFO. When a global
//!   [`RuntimeConfig::memory_budget`] is set, each admitted job runs
//!   under `global / max_jobs` bytes (or its own tighter budget), so the
//!   sum of per-job streaming live sets stays inside the global budget.
//! * **Fair shard scheduling** — all running jobs share one worker pool;
//!   the pool's round-robin section scan interleaves shard-sized morsels
//!   across jobs, so a small job makes progress alongside a huge one
//!   instead of queueing behind it.
//! * **Cancellation** — [`JobHandle::cancel`] flips a flag the executor
//!   observes at every shard claim. A cancelled job stops within one
//!   shard of work per worker, releases its residency accounting, and
//!   drops its spill spools (the spool's remove-on-drop guarantees no
//!   leaked files).
//! * **Progress** — [`JobHandle::progress`] reports shards completed and
//!   samples/bytes currently resident, live while the job runs.
//!
//! A job is an executor plus an optional resident dataset, and runs the
//! executor's one sequencer — the same one [`Executor::run`] and
//! [`Executor::run_io`] run — so its output is byte-identical to a direct
//! call: the returned dataset, or with `ExecOptions::output` set the
//! manifest-tracked parts, whether the input was handed in or read from
//! `ExecOptions::input`. `tests/mode_matrix.rs` runs a `runtime` row of
//! every shape to hold it to that.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use dj_core::sync::{lock, wait};
use dj_core::{panic_message, Dataset, DjError, ResidencyGauge, Result};

use crate::executor::Executor;
use crate::report::RunReport;

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Maximum jobs executing simultaneously; further submissions queue
    /// FIFO and start as running jobs finish. Clamped to ≥ 1.
    pub max_jobs: usize,
    /// Global memory budget (bytes) partitioned across admitted jobs:
    /// each job runs under `memory_budget / max_jobs` unless its own
    /// options specify something tighter. `None` leaves every job's own
    /// budget (or lack of one) in force.
    pub memory_budget: Option<u64>,
    /// Retry policy for *transient* job failures (IO, truncation,
    /// checksum mismatch). The default of one attempt disables retries.
    pub retry: RetryPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_jobs: 4,
            memory_budget: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// How the runtime retries a job that failed with a transient error
/// ([`DjError::is_transient`]: IO, truncation, checksum mismatch).
/// Deterministic failures — op errors, config errors, cancellation,
/// error-budget overruns — are never retried: rerunning the same
/// recipe over the same bytes reproduces them exactly.
///
/// A retried attempt re-enters the executor with the *same* options
/// value, so the fault plan in `ExecOptions::faults` — one `Arc`, and its
/// per-site hit counters with it — carries over: an injected fault that
/// fired on attempt 1 stays consumed, and the retry runs clean and
/// byte-identical. The options hold nothing else an attempt could leave
/// behind: spill spools and the error ledger are made fresh for every
/// attempt.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first. `1` (default) disables
    /// retries; clamped to ≥ 1.
    pub max_attempts: usize,
    /// Backoff before retry `k` (1-based) is `base * 2^(k-1)`, capped.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and the default backoff.
    pub fn attempts(max_attempts: usize) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// The capped exponential backoff before 1-based retry `k`.
    pub fn backoff(&self, k: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(k.saturating_sub(1)).unwrap_or(u32::MAX));
        exp.min(self.cap)
    }
}

/// Per-job control block shared between the runtime, the executor's
/// streaming passes (via `RunCtl`) and the caller's [`JobHandle`].
#[derive(Debug, Default)]
pub struct JobControl {
    cancelled: AtomicBool,
    shards_done: AtomicUsize,
    live_samples: AtomicUsize,
    live_bytes: AtomicUsize,
    /// Execution attempts started so far (1 for a job that never
    /// needed a retry; 0 until the job is admitted).
    attempts: AtomicUsize,
    /// The runtime's cross-job gauge, mirrored on every acquire/release
    /// so aggregate residency (and its peak) is observable at the
    /// runtime level. `None` for control blocks made outside a runtime.
    aggregate: Option<Arc<ResidencyGauge>>,
}

impl JobControl {
    fn new(aggregate: Option<Arc<ResidencyGauge>>) -> JobControl {
        JobControl {
            aggregate,
            ..JobControl::default()
        }
    }

    /// Whether [`JobHandle::cancel`] has been called. The executor checks
    /// this at every shard claim.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Request cancellation (same flag [`JobHandle::cancel`] flips).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Shards this job has driven through a full stage pass so far.
    pub fn shards_done(&self) -> usize {
        self.shards_done.load(Ordering::Relaxed)
    }

    /// Samples currently resident in this job's streaming machinery.
    pub fn live_samples(&self) -> usize {
        self.live_samples.load(Ordering::Relaxed)
    }

    /// Approximate heap bytes of those resident samples.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Execution attempts started so far (> 1 once a transient failure
    /// has been retried).
    pub fn attempts(&self) -> usize {
        self.attempts.load(Ordering::Relaxed)
    }

    fn note_attempt(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn acquire(&self, samples: usize, bytes: usize) {
        self.live_samples.fetch_add(samples, Ordering::Relaxed);
        self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(g) = &self.aggregate {
            g.acquire(samples, bytes);
        }
    }

    pub(crate) fn release(&self, samples: usize, bytes: usize) {
        self.live_samples.fetch_sub(samples, Ordering::Relaxed);
        self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        if let Some(g) = &self.aggregate {
            g.release(samples, bytes);
        }
    }

    pub(crate) fn note_shard_done(&self) {
        self.shards_done.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time progress snapshot of a submitted job.
#[derive(Debug, Clone, Copy)]
pub struct JobProgress {
    /// Shards driven through a full stage pass so far.
    pub shards_done: usize,
    /// Samples currently resident in the job's streaming machinery.
    pub live_samples: usize,
    /// Approximate heap bytes of those resident samples.
    pub live_bytes: usize,
    /// Whether the job's result is available ([`JobHandle::wait`] will
    /// not block).
    pub finished: bool,
    /// Whether the job has been cancelled.
    pub cancelled: bool,
    /// Execution attempts started so far (> 1 once a transient failure
    /// has been retried under [`RuntimeConfig::retry`]).
    pub attempts: usize,
}

/// What a finished job produced.
#[derive(Debug)]
pub struct JobOutput {
    /// The processed dataset — `None` for jobs that wrote their output to
    /// disk (`ExecOptions::output` set).
    pub dataset: Option<Dataset>,
    pub report: RunReport,
}

/// One-shot result cell a driver thread resolves and any number of
/// waiters can block on.
struct JobSlot {
    cell: Mutex<Option<Result<JobOutput>>>,
    cv: Condvar,
    done: AtomicBool,
}

impl JobSlot {
    fn new() -> JobSlot {
        JobSlot {
            cell: Mutex::new(None),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
        }
    }

    fn resolve(&self, r: Result<JobOutput>) {
        *lock(&self.cell) = Some(r);
        self.done.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<JobOutput> {
        let mut cell = lock(&self.cell);
        loop {
            if let Some(r) = cell.take() {
                return r;
            }
            cell = wait(&self.cv, cell);
        }
    }
}

/// The caller's handle on a submitted job.
pub struct JobHandle {
    id: u64,
    ctl: Arc<JobControl>,
    slot: Arc<JobSlot>,
}

impl JobHandle {
    /// Runtime-assigned job id (monotonic per runtime).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cancellation. The job observes the flag at its next shard
    /// claim, fails with [`DjError::Cancelled`], releases its residency
    /// accounting and drops its spill spools. Cancelling a still-queued
    /// job resolves it without ever running. Idempotent.
    pub fn cancel(&self) {
        self.ctl.cancel();
    }

    /// Whether the result is available (i.e. [`JobHandle::wait`] will
    /// return immediately).
    pub fn is_finished(&self) -> bool {
        self.slot.done.load(Ordering::Acquire)
    }

    /// Live progress counters.
    pub fn progress(&self) -> JobProgress {
        JobProgress {
            shards_done: self.ctl.shards_done(),
            live_samples: self.ctl.live_samples(),
            live_bytes: self.ctl.live_bytes(),
            finished: self.is_finished(),
            cancelled: self.ctl.is_cancelled(),
            attempts: self.ctl.attempts(),
        }
    }

    /// The job's control block (shared with the executor).
    pub fn control(&self) -> Arc<JobControl> {
        Arc::clone(&self.ctl)
    }

    /// Block until the job finishes and take its result. A cancelled job
    /// yields `Err(DjError::Cancelled)`.
    pub fn wait(self) -> Result<JobOutput> {
        self.slot.wait()
    }
}

/// A job: an executor plus, for a resident input, its dataset (`None`
/// reads the corpus named by `ExecOptions::input`).
struct PendingJob {
    ctl: Arc<JobControl>,
    slot: Arc<JobSlot>,
    exec: Executor,
    dataset: Option<Dataset>,
}

struct Sched {
    running: usize,
    pending: VecDeque<PendingJob>,
    next_id: u64,
}

struct RuntimeInner {
    cfg: RuntimeConfig,
    aggregate: Arc<ResidencyGauge>,
    sched: Mutex<Sched>,
}

/// A persistent, multi-tenant job scheduler over the process-wide worker
/// pool. See the module docs for the admission/fairness/cancellation
/// model.
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    pub fn new(cfg: RuntimeConfig) -> Runtime {
        Runtime {
            inner: Arc::new(RuntimeInner {
                cfg,
                aggregate: Arc::new(ResidencyGauge::default()),
                sched: Mutex::new(Sched {
                    running: 0,
                    pending: VecDeque::new(),
                    next_id: 0,
                }),
            }),
        }
    }

    pub fn config(&self) -> &RuntimeConfig {
        &self.inner.cfg
    }

    /// Peak samples simultaneously resident across *all* jobs this
    /// runtime has ever run.
    pub fn peak_resident_samples(&self) -> usize {
        self.inner.aggregate.peak_samples()
    }

    /// Peak approximate heap bytes simultaneously resident across all
    /// jobs — the number admission control keeps under
    /// [`RuntimeConfig::memory_budget`].
    pub fn peak_resident_bytes(&self) -> usize {
        self.inner.aggregate.peak_bytes()
    }

    /// Jobs currently executing plus jobs queued for admission.
    pub fn jobs_in_flight(&self) -> usize {
        let sched = lock(&self.inner.sched);
        sched.running + sched.pending.len()
    }

    /// Submit an in-memory dataset job. Returns immediately; the job runs
    /// (or queues) on the runtime. With `ExecOptions::output` set the
    /// result is written as manifest-tracked parts, as a file-to-file job's
    /// is, and the job returns no dataset.
    pub fn submit(&self, exec: Executor, dataset: Dataset) -> JobHandle {
        self.enqueue(exec, Some(dataset))
    }

    /// Submit a file-to-file job ([`Executor::run_io`] semantics: input
    /// from `ExecOptions::input`, output to `ExecOptions::output` when
    /// set).
    pub fn submit_io(&self, exec: Executor) -> JobHandle {
        self.enqueue(exec, None)
    }

    fn enqueue(&self, mut exec: Executor, dataset: Option<Dataset>) -> JobHandle {
        let ctl = Arc::new(JobControl::new(Some(Arc::clone(&self.inner.aggregate))));
        let slot = Arc::new(JobSlot::new());
        // Partition the global budget. The job's own budget only ever
        // tightens further.
        if let Some(global) = self.inner.cfg.memory_budget {
            let share = (global / self.inner.cfg.max_jobs.max(1) as u64).max(1);
            exec.options.memory_budget = Some(match exec.options.memory_budget {
                Some(own) => own.min(share),
                None => share,
            });
        }
        let job = PendingJob {
            ctl: Arc::clone(&ctl),
            slot: Arc::clone(&slot),
            exec,
            dataset,
        };
        let id = {
            let mut sched = lock(&self.inner.sched);
            let id = sched.next_id;
            sched.next_id += 1;
            if sched.running < self.inner.cfg.max_jobs.max(1) {
                sched.running += 1;
                drop(sched);
                RuntimeInner::spawn_driver(&self.inner, job);
            } else {
                sched.pending.push_back(job);
            }
            id
        };
        JobHandle { id, ctl, slot }
    }
}

impl RuntimeInner {
    /// Run a job to a final result under the retry policy: transient
    /// failures (IO, truncation, checksum — [`DjError::is_transient`])
    /// are retried with capped exponential backoff up to
    /// [`RetryPolicy::max_attempts`]; deterministic failures (op errors,
    /// config errors, error-budget overruns) and panics surface
    /// immediately. Every attempt re-enters the executor with the same
    /// options value, so the fault plan's hit counters persist across
    /// attempts — a seeded fault consumed on attempt 1 does not re-fire
    /// on attempt 2. The resident input is copied only for an
    /// attempt another one can follow; the last attempt takes it.
    fn run_with_retries(
        retry: &RetryPolicy,
        ctl: &Arc<JobControl>,
        exec: &Executor,
        mut dataset: Option<Dataset>,
    ) -> Result<JobOutput> {
        let max_attempts = retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            ctl.note_attempt();
            let input = if (attempt as usize) < max_attempts {
                dataset.clone()
            } else {
                dataset.take()
            };
            let run = || exec.sequence(input, None, Some(Arc::clone(ctl)));
            let result = match catch_unwind(AssertUnwindSafe(run)) {
                Ok(r) => r.map(|(dataset, report)| JobOutput { dataset, report }),
                Err(payload) => Err(DjError::op(
                    "service-job",
                    format!("job thread panicked: {}", panic_message(payload.as_ref())),
                )),
            };
            match result {
                Err(e)
                    if e.is_transient()
                        && (attempt as usize) < max_attempts
                        && !ctl.is_cancelled() =>
                {
                    std::thread::sleep(retry.backoff(attempt));
                }
                final_result => return final_result,
            }
        }
    }

    /// Drive one admitted job to completion on a dedicated thread, then
    /// keep pulling queued jobs until none remain — completion-driven
    /// admission, no scheduler thread. The driver thread itself does
    /// little work: the executor's streaming sections run on the shared
    /// worker pool, the driver just participates as one stepper. When no
    /// thread can be spawned the job resolves with that IO error and its
    /// admission slot is freed.
    fn spawn_driver(inner: &Arc<RuntimeInner>, job: PendingJob) {
        let slot = Arc::clone(&job.slot);
        let driver = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("dj-job-driver".into())
            .spawn(move || driver.drive(job));
        if let Err(e) = spawned {
            lock(&inner.sched).running -= 1;
            slot.resolve(Err(DjError::Io(e)));
        }
    }

    /// The driver loop of [`spawn_driver`](Self::spawn_driver).
    fn drive(&self, job: PendingJob) {
        let mut job = Some(job);
        while let Some(PendingJob {
            ctl,
            slot,
            exec,
            dataset,
        }) = job.take()
        {
            let result = if ctl.is_cancelled() {
                // Cancelled while queued: resolve without running.
                Err(DjError::Cancelled)
            } else {
                Self::run_with_retries(&self.cfg.retry, &ctl, &exec, dataset)
            };
            // A job that failed for good leaves no partial egress behind:
            // uncommitted part files, tmp files and the quarantine sidecar
            // are removed; committed manifests are left alone.
            // Cancellation is not a failure — a cancelled run's directory
            // is kept as-is so a resubmission can be compared against
            // whatever it had already committed.
            if matches!(&result, Err(e) if !matches!(e, DjError::Cancelled)) {
                if let Some(dir) = &exec.options.output {
                    let _ = dj_io::cleanup_partial_egress(dir);
                }
            }
            // Update the schedule *before* resolving, so a waiter that
            // wakes on the result already sees this slot freed (or handed
            // to the next queued job).
            {
                let mut sched = lock(&self.sched);
                match sched.pending.pop_front() {
                    Some(next) => job = Some(next),
                    None => sched.running -= 1,
                }
            }
            slot.resolve(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ExecOptions;
    use dj_core::{Mapper, Op, Sample, SampleContext};
    use dj_ops::builtin_registry;

    fn exec(np: usize) -> Executor {
        let reg = builtin_registry();
        let ops = vec![reg
            .build("whitespace_normalization_mapper", &Default::default())
            .unwrap()];
        Executor::new(ops).with_options(ExecOptions {
            num_workers: np,
            ..ExecOptions::default()
        })
    }

    fn dataset(n: usize, tag: &str) -> Dataset {
        Dataset::from_texts(
            (0..n)
                .map(|i| format!("sample   {tag}   number {i} with   spaces"))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn submit_runs_one_job() {
        let rt = Runtime::new(RuntimeConfig::default());
        let out = rt.submit(exec(2), dataset(64, "a")).wait().unwrap();
        let ds = out.dataset.unwrap();
        assert_eq!(ds.len(), 64);
        assert!(ds.iter().all(|s| !s.text().contains("  ")));
    }

    #[test]
    fn queueing_respects_max_jobs_and_all_jobs_finish() {
        let rt = Runtime::new(RuntimeConfig {
            max_jobs: 2,
            memory_budget: None,
            ..RuntimeConfig::default()
        });
        let handles: Vec<JobHandle> = (0..6)
            .map(|i| rt.submit(exec(2), dataset(32, &format!("j{i}"))))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = h.wait().unwrap();
            let ds = out.dataset.unwrap();
            assert_eq!(ds.len(), 32, "job {i}");
            assert!(ds.samples()[0].text().contains(&format!("j{i}")));
        }
        assert_eq!(rt.jobs_in_flight(), 0);
    }

    #[test]
    fn cancel_before_admission_resolves_cancelled() {
        let rt = Runtime::new(RuntimeConfig {
            max_jobs: 1,
            memory_budget: None,
            ..RuntimeConfig::default()
        });
        // Occupy the single slot with a big job, queue a second, cancel it.
        let big = rt.submit(exec(2), dataset(4096, "big"));
        let queued = rt.submit(exec(2), dataset(32, "victim"));
        queued.cancel();
        assert!(matches!(queued.wait(), Err(DjError::Cancelled)));
        assert!(big.wait().is_ok());
    }

    #[test]
    fn global_budget_partitions_across_jobs() {
        let rt = Runtime::new(RuntimeConfig {
            max_jobs: 4,
            memory_budget: Some(1 << 20),
            ..RuntimeConfig::default()
        });
        let h = rt.submit(exec(1), dataset(16, "b"));
        assert!(h.wait().is_ok());
        // 16 tiny samples under a 256 KiB share: never spills, and the
        // aggregate gauge saw at most the whole dataset.
        assert!(rt.peak_resident_bytes() <= 1 << 20);
    }

    #[test]
    fn failed_job_resolves_as_error_and_frees_the_slot() {
        let rt = Runtime::new(RuntimeConfig {
            max_jobs: 1,
            memory_budget: None,
            ..RuntimeConfig::default()
        });
        // A file-to-file job with no input fails with a config error; the
        // slot must still resolve and admit the queued job behind it.
        let reg = builtin_registry();
        let ops = vec![reg
            .build("whitespace_normalization_mapper", &Default::default())
            .unwrap()];
        let bad = rt.submit_io(Executor::new(ops).with_options(ExecOptions {
            input: None,
            ..ExecOptions::default()
        }));
        let good = rt.submit(exec(1), dataset(8, "after"));
        assert!(bad.wait().is_err());
        assert!(good.wait().is_ok());
    }

    #[test]
    fn transient_failures_burn_every_attempt() {
        let rt = Runtime::new(RuntimeConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
            ..RuntimeConfig::default()
        });
        // The output path collides with an existing *file*: egress fails
        // with an IO error — transient by classification — so the
        // runtime retries the job to exhaustion.
        let dir = std::env::temp_dir().join(format!("dj-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.jsonl");
        std::fs::write(&input, "{\"text\":\"hello\"}\n").unwrap();
        let occupied = dir.join("not-a-dir");
        std::fs::write(&occupied, "occupied").unwrap();
        let reg = builtin_registry();
        let ops = vec![reg
            .build("whitespace_normalization_mapper", &Default::default())
            .unwrap()];
        let h = rt.submit_io(Executor::new(ops).with_options(ExecOptions {
            input: Some(input.display().to_string()),
            output: Some(occupied),
            ..ExecOptions::default()
        }));
        let ctl = h.control();
        assert!(matches!(h.wait(), Err(DjError::Io(_))));
        assert_eq!(ctl.attempts(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let rt = Runtime::new(RuntimeConfig {
            retry: RetryPolicy::attempts(5),
            ..RuntimeConfig::default()
        });
        // No input at all is a config error — deterministic, one attempt.
        let reg = builtin_registry();
        let ops = vec![reg
            .build("whitespace_normalization_mapper", &Default::default())
            .unwrap()];
        let h = rt.submit_io(Executor::new(ops).with_options(ExecOptions {
            input: None,
            ..ExecOptions::default()
        }));
        let ctl = h.control();
        assert!(matches!(h.wait(), Err(DjError::Config(_))));
        assert_eq!(ctl.attempts(), 1);
    }

    /// Records the address of the text buffer of the first sample it sees.
    struct TextAddress(AtomicUsize);

    impl Mapper for TextAddress {
        fn name(&self) -> &'static str {
            "text_address_mapper"
        }
        fn process(&self, sample: &mut Sample, _: &mut SampleContext) -> Result<bool> {
            let addr = sample.text().as_ptr() as usize;
            let _ = self
                .0
                .compare_exchange(0, addr, Ordering::Relaxed, Ordering::Relaxed);
            Ok(false)
        }
    }

    /// A job that cannot be retried runs on the samples it was handed; one
    /// that can keeps them for the next attempt and runs on a copy.
    #[test]
    fn only_a_retryable_job_copies_its_input() {
        for attempts in [1, 2] {
            let rt = Runtime::new(RuntimeConfig {
                retry: RetryPolicy::attempts(attempts),
                ..RuntimeConfig::default()
            });
            let seen = Arc::new(TextAddress(AtomicUsize::new(0)));
            let exec = Executor::new(vec![Op::Mapper(seen.clone())]).with_options(ExecOptions {
                num_workers: 1,
                ..ExecOptions::default()
            });
            let data = Dataset::from_texts(["the one sample of this job"]);
            let submitted = data.samples()[0].text().as_ptr() as usize;
            rt.submit(exec, data).wait().unwrap();
            let copied = seen.0.load(Ordering::Relaxed) != submitted;
            assert_eq!(copied, attempts > 1, "{attempts} attempts");
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(150),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(25));
        assert_eq!(p.backoff(2), Duration::from_millis(50));
        assert_eq!(p.backoff(3), Duration::from_millis(100));
        assert_eq!(p.backoff(4), Duration::from_millis(150));
        assert_eq!(p.backoff(63), Duration::from_millis(150));
    }
}
