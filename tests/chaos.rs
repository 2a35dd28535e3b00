//! Chaos property test: for **every** fault-injection site × error kind,
//! a run executed under the retrying runtime either
//!
//! 1. succeeds with output byte-identical to the fault-free run (the
//!    fault was transient and a retry absorbed it), or
//! 2. fails with a clean *typed* error — never a harness panic, and
//!    never partial or corrupt egress left on disk.
//!
//! The matrix runs three execution shapes — in-memory, forced spill and
//! file-to-file (JSONL and `frames` output) — so
//! the store, IO and exec layers each see their sites exercised. A fault
//! plan is the process's: each test installs its plan around the runs it
//! faults, as a chaos host does, so everything here serializes through one
//! gate mutex.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use data_juicer::config::{OpSpec, Recipe};
use data_juicer::core::faults::{self, FaultPlan, FAULTS_ENV, KINDS, SITES};
use data_juicer::core::{Dataset, DjError, Mapper, Op, Result, Sample, SampleContext};
use data_juicer::exec::{ExecOptions, Executor, JobHandle, RetryPolicy, Runtime, RuntimeConfig};
use data_juicer::ops::builtin_registry;

/// Fault plans are process-global; every test that runs with one holds
/// this gate.
static GATE: Mutex<()> = Mutex::new(());

/// Run `f` with `plan` installed for the process, as a chaos host does.
fn under<R>(plan: &Arc<FaultPlan>, f: impl FnOnce() -> R) -> R {
    let _installed = faults::install(Arc::clone(plan));
    f()
}

const RETRIES: usize = 3;

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dj-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A pipeline whose tail dedup barrier takes the fingerprints its ingest
/// stage carried on the file-backed path, so the barrier reads no frame.
fn recipe() -> Recipe {
    Recipe::new("chaos")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 1.0)
                .with("max_len", 1e9),
        )
        .then(OpSpec::new("document_deduplicator"))
}

fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("chaos   sample {i} with   irregular   spacing {}", i % 7))
        .collect()
}

fn dataset(n: usize) -> Dataset {
    Dataset::from_texts(corpus(n))
}

fn write_corpus(dir: &Path, n: usize) -> PathBuf {
    let path = dir.join("in.jsonl");
    let lines: Vec<String> = corpus(n)
        .into_iter()
        .map(|t| Sample::from_text(t).value().to_string())
        .collect();
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    path
}

fn runtime() -> Runtime {
    Runtime::new(RuntimeConfig {
        max_jobs: 1,
        retry: RetryPolicy {
            max_attempts: RETRIES,
            base: std::time::Duration::from_millis(1),
            cap: std::time::Duration::from_millis(4),
        },
        ..RuntimeConfig::default()
    })
}

/// The resident-input shapes: in-memory, forced spill.
const MEM_SHAPES: [bool; 2] = [false, true];

fn mem_options(spill: bool) -> ExecOptions {
    ExecOptions {
        num_workers: 2,
        shard_size: Some(8),
        memory_budget: spill.then_some(1),
        ..ExecOptions::default()
    }
}

/// Concatenated committed egress bytes (manifest must exist and every
/// part it names must decode), or `None` when no manifest was committed.
fn egress_bytes(dir: &Path) -> Option<Vec<u8>> {
    let manifest = data_juicer::io::EgressManifest::load(dir).ok()?;
    let mut all = Vec::new();
    for part in &manifest.parts {
        all.extend(std::fs::read(dir.join(&part.file)).unwrap());
    }
    Some(all)
}

/// No uncommitted debris: a failed job must leave neither temp files,
/// nor a partial-commit log, nor orphaned part files.
fn assert_no_partial_egress(dir: &Path, ctx: &str) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let partial = name.ends_with(".tmp")
            || name == "manifest.partial"
            || name.starts_with("part-")
            || name.starts_with("quarantine-");
        assert!(
            !partial,
            "{ctx}: partial egress artifact `{name}` left behind"
        );
    }
}

/// The error a faulted run surfaces must be a typed `DjError` with a
/// description — the injected fault or its downstream detection — not a
/// mangled/empty artifact of the harness.
fn assert_clean_error(err: &DjError, ctx: &str) {
    let msg = err.to_string();
    assert!(!msg.is_empty(), "{ctx}: empty error");
    assert!(
        !matches!(err, DjError::Cancelled),
        "{ctx}: fault surfaced as cancellation: {msg}"
    );
}

#[test]
fn every_site_and_kind_holds_the_chaos_property_in_memory() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let ops = recipe().build_ops(&builtin_registry()).unwrap();
    let baseline = {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 2,
            shard_size: Some(8),
            ..ExecOptions::default()
        });
        exec.run(dataset(48)).unwrap().0
    };
    for spill in MEM_SHAPES {
        for &site in SITES {
            for &kind in KINDS {
                let ctx = format!("site={site} kind={} spill={spill}", kind.name());
                let plan = Arc::new(FaultPlan::single(site, kind, 1, 7));
                let exec = Executor::new(ops.clone()).with_options(mem_options(spill));
                let result = under(&plan, || runtime().submit(exec, dataset(48)).wait());
                match result {
                    Ok(out) => {
                        let out = out.dataset.expect("mem job returns a dataset");
                        assert_eq!(out, baseline, "{ctx}: survived run must be byte-identical");
                    }
                    Err(e) => assert_clean_error(&e, &ctx),
                }
                assert!(
                    !faults::armed(site),
                    "{ctx}: fault plan leaked past the run"
                );
            }
        }
    }
}

#[test]
fn every_site_and_kind_holds_the_chaos_property_file_to_file() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let ops = recipe().build_ops(&builtin_registry()).unwrap();
    let input_dir = unique_dir("input");
    let input = write_corpus(&input_dir, 48);
    let options = |out: &Path| ExecOptions {
        num_workers: 2,
        shard_size: Some(8),
        input: Some(input.display().to_string()),
        output: Some(out.to_path_buf()),
        ..ExecOptions::default()
    };

    let baseline_dir = unique_dir("baseline");
    let baseline_exec = Executor::new(ops.clone()).with_options(options(&baseline_dir));
    baseline_exec.run_io().unwrap();
    let expected = egress_bytes(&baseline_dir).expect("baseline egress");

    let mut fired = 0u32;
    for &site in SITES {
        for &kind in KINDS {
            let ctx = format!("site={site} kind={} io", kind.name());
            let out_dir = unique_dir(&format!("{site}-{}", kind.name()));
            let plan = Arc::new(FaultPlan::single(site, kind, 1, 7));
            let exec = Executor::new(ops.clone()).with_options(options(&out_dir));
            let result = under(&plan, || runtime().submit_io(exec).wait());
            if plan.hits(site) > 0 {
                fired += 1;
            }
            match result {
                Ok(_) => {
                    let got = egress_bytes(&out_dir)
                        .unwrap_or_else(|| panic!("{ctx}: success without committed manifest"));
                    assert_eq!(got, expected, "{ctx}: survived run must be byte-identical");
                }
                Err(e) => {
                    assert_clean_error(&e, &ctx);
                    assert!(
                        egress_bytes(&out_dir).is_none(),
                        "{ctx}: failed run must not commit a manifest"
                    );
                    assert_no_partial_egress(&out_dir, &ctx);
                }
            }
            let _ = std::fs::remove_dir_all(&out_dir);
        }
    }
    // The matrix is only meaningful if the file-to-file path actually
    // reaches its sites: every io.* and exec.* site must have been hit.
    assert!(
        fired >= 20,
        "only {fired} of the armed site/kind pairs were ever reached"
    );
    let _ = std::fs::remove_dir_all(&baseline_dir);

    let _ = std::fs::remove_dir_all(&input_dir);
}

/// Egress reads every slot of the spool through its checksum: a frame
/// damaged as it was written never goes out as a committed part. The job
/// gets one attempt, so the one damaged write stays damaged — it must end
/// in the typed storage error the slot's checksum raises on its way to
/// JSON text, with no manifest and no part (parts of undamaged slots that
/// other workers committed meanwhile are the runtime's to clear).
#[test]
fn egress_never_ships_a_slot_damaged_at_write() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let ops = Recipe::new("chaos-egress")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .build_ops(&builtin_registry())
        .unwrap();
    let input_dir = unique_dir("egress-input");
    let input = write_corpus(&input_dir, 48);
    for kind in [faults::ErrKind::BitFlip, faults::ErrKind::Truncate] {
        let ctx = format!("kind={}", kind.name());
        let out_dir = unique_dir("egress-out");
        let plan = Arc::new(FaultPlan::single("store.frame.write", kind, 1, 7));
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 2,
            shard_size: Some(8),
            input: Some(input.display().to_string()),
            output: Some(out_dir.clone()),
            ..ExecOptions::default()
        });
        let runtime = Runtime::new(RuntimeConfig {
            max_jobs: 1,
            ..RuntimeConfig::default()
        });
        let err = under(&plan, || runtime.submit_io(exec).wait())
            .err()
            .unwrap_or_else(|| panic!("{ctx}: a damaged slot was shipped"));
        assert_eq!(
            plan.hits("store.frame.write"),
            6,
            "{ctx}: six frames written"
        );
        assert!(matches!(err, DjError::Storage(_)), "{ctx}: {err:?}");
        assert!(egress_bytes(&out_dir).is_none(), "{ctx}: manifest");
        assert_no_partial_egress(&out_dir, &ctx);
        let _ = std::fs::remove_dir_all(&out_dir);
    }
    let _ = std::fs::remove_dir_all(&input_dir);
}

/// "Every site × every shape" includes the spilled (columnar) pipeline
/// stage: it runs on the same shard driver as every other shape, so a shard
/// claim and a worker step inside it are fault sites like anywhere else.
/// The recipe has no barrier, so the one streaming pass of the run *is* the
/// columnar pipeline stage — a hit on either site can only have come from
/// there.
#[test]
fn columnar_pipeline_stage_reaches_the_exec_fault_sites() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let ops = Recipe::new("chaos-columnar-stage")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .then(
            OpSpec::new("text_length_filter")
                .with("min_len", 1.0)
                .with("max_len", 1e9),
        )
        .build_ops(&builtin_registry())
        .unwrap();
    let baseline = Executor::new(ops.clone())
        .with_options(ExecOptions {
            num_workers: 2,
            shard_size: Some(8),
            ..ExecOptions::default()
        })
        .run(dataset(48))
        .unwrap()
        .0;
    for site in ["exec.shard.claim", "exec.worker.step"] {
        let plan = Arc::new(FaultPlan::single(site, faults::ErrKind::Io, 1, 7));
        let exec = Executor::new(ops.clone()).with_options(mem_options(true));
        let out = under(&plan, || runtime().submit(exec, dataset(48)).wait())
            .unwrap_or_else(|e| panic!("{site}: a transient fault must be retried away: {e}"));
        assert!(out.report.spilled, "{site}: shape");
        assert!(
            plan.hits(site) > 0,
            "{site} was never reached inside the columnar pipeline stage"
        );
        assert_eq!(out.dataset.unwrap(), baseline, "{site}: byte identity");
    }
}

/// A runtime job with a resident input and `output` set egresses through
/// the one shard driver, like every other pass: each part's claim is a
/// fault site (and a cancellation point). One worker, one stage, 48 samples
/// in 8-sample shards: the stage claims its 6 shards and finds the feed dry
/// on a 7th claim, so the 8th claim is egress's first. An `io` fault there,
/// with no retry, must fail the job typed and leave no manifest and no part.
#[test]
fn a_resident_job_egresses_through_the_shard_driver() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let ops = Recipe::new("chaos-resident-egress")
        .then(OpSpec::new("whitespace_normalization_mapper"))
        .build_ops(&builtin_registry())
        .unwrap();
    let site = "exec.shard.claim";
    let job = |out: &Path, plan: &Arc<FaultPlan>| {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 1,
            shard_size: Some(8),
            output: Some(out.to_path_buf()),
            ..ExecOptions::default()
        });
        let runtime = Runtime::new(RuntimeConfig {
            max_jobs: 1,
            ..RuntimeConfig::default()
        });
        under(plan, || runtime.submit(exec, dataset(48)).wait())
    };

    // A plan that never fires counts the claims: 7 for the stage, 7 for
    // egress.
    let idle_dir = unique_dir("resident-egress-idle");
    let idle = Arc::new(FaultPlan::single(site, faults::ErrKind::Io, u64::MAX, 7));
    job(&idle_dir, &idle).unwrap();
    assert_eq!(idle.hits(site), 14);
    assert!(
        egress_bytes(&idle_dir).is_some(),
        "idle run committed nothing"
    );

    let out_dir = unique_dir("resident-egress-out");
    let plan = Arc::new(FaultPlan::single(site, faults::ErrKind::Io, 8, 7));
    let err = job(&out_dir, &plan).expect_err("a fault on egress's first claim committed the job");
    assert_eq!(
        plan.hits(site),
        8,
        "egress went on claiming after the fault"
    );
    assert!(matches!(err, DjError::Io(_)), "{err:?}");
    assert!(egress_bytes(&out_dir).is_none(), "manifest");
    assert_no_partial_egress(&out_dir, "resident egress");
    let _ = std::fs::remove_dir_all(&idle_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// Where a mapper holds its job until the test lets it go: the job's
/// first sample enters the gate and waits for it to open.
#[derive(Default)]
struct Gate {
    /// (a sample entered, the gate is open)
    state: Mutex<(bool, bool)>,
    turned: Condvar,
}

impl Gate {
    fn wait_until(&self, done: impl Fn(&(bool, bool)) -> bool) {
        let mut state = self.state.lock().unwrap();
        while !done(&state) {
            state = self.turned.wait(state).unwrap();
        }
    }

    fn set(&self, change: impl FnOnce(&mut (bool, bool))) {
        change(&mut self.state.lock().unwrap());
        self.turned.notify_all();
    }
}

struct Held(Arc<Gate>);

impl Mapper for Held {
    fn name(&self) -> &'static str {
        "held_mapper"
    }
    fn process(&self, _: &mut Sample, _: &mut SampleContext) -> Result<bool> {
        self.0.set(|state| state.0 = true);
        self.0.wait_until(|state| state.1);
        Ok(false)
    }
}

/// A plan is the process's, not a job's: two runtime jobs that overlap and
/// end in either order leave it armed throughout, and its hit counters
/// count the shard claims of both. (When each run installed its own copy
/// and restored the plan it found on the way out, the job that ended first
/// disarmed the plan under the other, or re-armed a spent one after both.)
#[test]
fn a_host_plan_outlives_concurrent_jobs() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let site = "exec.shard.claim";
    let rt = Runtime::new(RuntimeConfig {
        max_jobs: 2,
        ..RuntimeConfig::default()
    });
    // One worker: a job's one pass runs on its own driver thread, so a
    // held sample blocks that job and no other.
    let submit = |gate: &Arc<Gate>| {
        let exec = Executor::new(vec![Op::Mapper(Arc::new(Held(Arc::clone(gate))))]);
        let options = ExecOptions {
            num_workers: 1,
            shard_size: Some(8),
            ..ExecOptions::default()
        };
        rt.submit(exec.with_options(options), dataset(24))
    };
    // A plan that never fires counts one job's claims, run alone.
    let idle = || Arc::new(FaultPlan::single(site, faults::ErrKind::Io, u64::MAX, 7));
    let solo = idle();
    let open = Arc::new(Gate::default());
    open.set(|state| state.1 = true);
    under(&solo, || submit(&open).wait()).unwrap();
    assert!(solo.hits(site) > 0, "a job claimed no shard");

    for order in [[0, 1], [1, 0]] {
        let plan = idle();
        let installed = faults::install(Arc::clone(&plan));
        let gates = [Arc::new(Gate::default()), Arc::new(Gate::default())];
        let mut jobs: Vec<Option<JobHandle>> = gates.iter().map(|g| Some(submit(g))).collect();
        for gate in &gates {
            gate.wait_until(|state| state.0);
        }
        // Both jobs are inside their pass now.
        for i in order {
            gates[i].set(|state| state.1 = true);
            let job = jobs[i].take().unwrap();
            let out = job.wait().unwrap().dataset.unwrap();
            assert_eq!(out.len(), 24, "job {i}");
            assert!(
                faults::armed(site),
                "{order:?}: job {i} ended and took the plan"
            );
        }
        assert_eq!(plan.hits(site), 2 * solo.hits(site), "{order:?}");
        drop(installed);
        assert!(
            !faults::armed(site),
            "{order:?}: the plan outlived its host"
        );
    }
}

/// A file-to-file run with a terminal barrier reads each spilled frame
/// exactly once — in the egress pass, where the barrier's deferred mask is
/// consumed while the frame is transcoded to JSONL (the barrier itself
/// clusters the fingerprints ingest carried in memory and reads no frame).
/// So the Nth `store.frame.read` hit *is*
/// the Nth egress load: a fault there must be retried away to the same
/// bytes or surface typed, with no manifest and no debris.
#[test]
fn a_frame_read_fault_inside_the_masked_egress_pass_holds_the_chaos_property() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let ops = recipe().build_ops(&builtin_registry()).unwrap();
    let input_dir = unique_dir("masked-egress-input");
    // Every third line repeats an earlier one: the mask drops a third.
    let lines: Vec<String> = (0..48)
        .map(|i| {
            format!(
                "masked   egress sample {}",
                if i % 3 == 2 { i - 2 } else { i }
            )
        })
        .map(|t| Sample::from_text(t).value().to_string())
        .collect();
    let input = input_dir.join("in.jsonl");
    std::fs::write(&input, lines.join("\n") + "\n").unwrap();
    let site = "store.frame.read";
    let options = |out: &Path| ExecOptions {
        num_workers: 2,
        shard_size: Some(8),
        input: Some(input.display().to_string()),
        output: Some(out.to_path_buf()),
        ..ExecOptions::default()
    };
    // A plan that never fires counts the reads: one per shard.
    let baseline_dir = unique_dir("masked-egress-baseline");
    let idle = Arc::new(FaultPlan::single(site, faults::ErrKind::Io, u64::MAX, 7));
    let exec = Executor::new(ops.clone()).with_options(options(&baseline_dir));
    let (_, report) = under(&idle, || exec.run_io()).unwrap();
    assert_eq!(report.final_samples, 32);
    assert_eq!(report.fingerprinted_barriers, 1);
    assert_eq!(
        idle.hits(site),
        6,
        "each of the 6 frames must be read exactly once"
    );
    let expected = egress_bytes(&baseline_dir).expect("baseline egress");

    for &kind in KINDS {
        for at in [1, 4] {
            let ctx = format!("kind={} at={at}", kind.name());
            let out_dir = unique_dir("masked-egress-out");
            let plan = Arc::new(FaultPlan::single(site, kind, at, 7));
            let exec = Executor::new(ops.clone()).with_options(options(&out_dir));
            let result = under(&plan, || runtime().submit_io(exec).wait());
            assert!(plan.hits(site) >= at, "{ctx}: the fault never fired");
            match result {
                Ok(_) => assert_eq!(
                    egress_bytes(&out_dir).as_ref(),
                    Some(&expected),
                    "{ctx}: survived run must be byte-identical"
                ),
                Err(e) => {
                    assert_clean_error(&e, &ctx);
                    assert!(egress_bytes(&out_dir).is_none(), "{ctx}: manifest");
                    assert_no_partial_egress(&out_dir, &ctx);
                }
            }
            let _ = std::fs::remove_dir_all(&out_dir);
        }
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&input_dir);
}

/// The seeded smoke matrix: each `seed:N` derives one fault (site × kind ×
/// Nth hit) and drives it through all three execution shapes, asserting the
/// chaos property for each — seeds 0..8 in process. A `DJ_FAULTS` set in
/// the environment narrows the loop to that one spec, to replay a failure
/// (`DJ_FAULTS=seed:5 cargo test --test chaos env_seed_smoke`). No library
/// crate reads the variable, so this is the one test it reaches.
#[test]
fn env_seed_smoke() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let specs: Vec<String> = match std::env::var(FAULTS_ENV) {
        Ok(spec) if !spec.trim().is_empty() => vec![spec],
        _ => (0..8).map(|seed| format!("seed:{seed}")).collect(),
    };
    let ops = recipe().build_ops(&builtin_registry()).unwrap();
    let baseline = {
        let exec = Executor::new(ops.clone()).with_options(ExecOptions {
            num_workers: 2,
            shard_size: Some(8),
            ..ExecOptions::default()
        });
        exec.run(dataset(48)).unwrap().0
    };
    let input_dir = unique_dir("env-input");
    let input = write_corpus(&input_dir, 48);
    let io_options = |out: &Path| ExecOptions {
        num_workers: 2,
        shard_size: Some(8),
        input: Some(input.display().to_string()),
        output: Some(out.to_path_buf()),
        ..ExecOptions::default()
    };
    let baseline_dir = unique_dir("env-baseline");
    Executor::new(ops.clone())
        .with_options(io_options(&baseline_dir))
        .run_io()
        .unwrap();
    let expected = egress_bytes(&baseline_dir).expect("baseline egress");

    for spec in &specs {
        // In-memory + forced-spill shapes.
        for spill in MEM_SHAPES {
            let plan = Arc::new(FaultPlan::parse(spec).unwrap());
            let ctx = format!("{spec} spill={spill}");
            let exec = Executor::new(ops.clone()).with_options(mem_options(spill));
            match under(&plan, || runtime().submit(exec, dataset(48)).wait()) {
                Ok(out) => assert_eq!(
                    out.dataset.expect("mem job returns a dataset"),
                    baseline,
                    "{ctx}: survived run must be byte-identical"
                ),
                Err(e) => assert_clean_error(&e, &ctx),
            }
        }

        // File-to-file shape.
        let out_dir = unique_dir("env-out");
        let plan = Arc::new(FaultPlan::parse(spec).unwrap());
        let ctx = format!("{spec} io");
        let exec = Executor::new(ops.clone()).with_options(io_options(&out_dir));
        match under(&plan, || runtime().submit_io(exec).wait()) {
            Ok(_) => {
                let got = egress_bytes(&out_dir)
                    .unwrap_or_else(|| panic!("{ctx}: success without committed manifest"));
                assert_eq!(got, expected, "{ctx}: survived run must be byte-identical");
            }
            Err(e) => {
                assert_clean_error(&e, &ctx);
                assert!(
                    egress_bytes(&out_dir).is_none(),
                    "{ctx}: failed run must not commit a manifest"
                );
                assert_no_partial_egress(&out_dir, &ctx);
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    let _ = std::fs::remove_dir_all(&input_dir);
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

#[test]
fn seeded_env_plans_reproduce_the_same_fault() {
    // `DJ_FAULTS=seed:N` (the smoke-matrix form) must derive the same
    // fault on every parse — the contract that makes a failing chaos run
    // replayable from its seed alone.
    for seed in 0..32 {
        let a = FaultPlan::parse(&format!("seed:{seed}")).unwrap();
        let b = FaultPlan::parse(&format!("seed:{seed}")).unwrap();
        assert_eq!(a.faults(), b.faults(), "seed {seed} diverged");
        assert_eq!(a.faults().len(), 1);
    }
}
