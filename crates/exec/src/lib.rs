//! # dj-exec — the sharded, pipelined execution engine (paper §6)
//!
//! ## Execution model: whole plan per shard, not whole dataset per op
//!
//! The naive executor of the paper's baseline systems runs *op-at-a-time*:
//! each operator scans the full dataset, all workers join at a barrier, the
//! intermediate dataset is materialized, and the next operator starts cold.
//! This engine inverts that loop:
//!
//! 1. **Plan.** The OP list is compiled into a [`Plan`] of [`PlanStep`]s —
//!    optionally fused & reordered per the Fig. 6 procedure ([`fusion`]).
//! 2. **Stages.** The plan is segmented into [`Stage`]s at the only true
//!    pipeline breakers: deduplicators, which need every sample's
//!    fingerprint before deciding anything. Mappers and filters are
//!    sample-local, so any run of them forms one `Stage::Pipeline`.
//! 3. **One driver.** Every pass over the data — a pipeline stage, a
//!    barrier's hash pass, a resident barrier's mask-apply, ingest, egress
//!    — is the
//!    same loop (`stream::drive`): a *feed* yields `(shard index, loaded
//!    shard)`, pool workers claim shards (morsel-driven, over-partitioned
//!    ~4× the worker count so fast workers absorb stragglers) and run a
//!    *body* on each, and a *sink* stores the outcome. For a pipeline stage
//!    the body drives the shard through **every step of the stage** before
//!    touching the next shard: a sample flows through the whole
//!    mapper/filter chain while hot in cache, samples a filter drops never
//!    reach later steps, and no intermediate dataset is ever materialized.
//!    The loop owns the streaming contract — the live-set reservation is
//!    taken before a load, so at most `num_workers × prefetch_depth` shards
//!    are resident; cancellation, the `exec.shard.claim` fault site,
//!    residency accounting and shard progress each sit in exactly one
//!    place — and is the same code whatever shape the data is in.
//! 4. **Shapes are feeds and sinks.** Where the data lives only decides
//!    which feed and sink the stage is handed (`data` module):
//!
//!    | shape | feed | sink | what is decoded |
//!    |---|---|---|---|
//!    | in memory | take the shard out of its slot | store into a slot | nothing — samples are resident |
//!    | spilled, row `DJSF` frames | read + decode slot *i* | encode a row frame | every sample |
//!    | spilled, columnar `DJSC` frames | read slot *i*, decode only the stage's footprint columns, carry the slab | splice: re-encode the decoded columns, copy every other region from the carried slab verbatim; dropped samples stay stored, masked | the footprint columns |
//!    | file ingest ([`Executor::run_io`]) | cut the next `shard_size` records off a [`CorpusReader`] | encode a frame (either format) | the parsed records |
//!
//!    A sink that writes frames also writes each shard's fingerprints for
//!    the barrier that follows (fingerprint-on-ingest).
//! 5. **Barriers.** A `Stage::Barrier` is three steps on any shape:
//!    fingerprint every sample, cluster the dataset-level keep mask
//!    (`Deduplicator::cluster`: MinHash and SimHash sort `(key, id)` words
//!    per LSH band or 16-bit block on the worker pool and verify each run
//!    of equal keys into a lock-free concurrent union-find; exact and
//!    paragraph hashes elect first occurrences in one pass), and hand the
//!    mask to the data. Resident shards are thinned in place; a spilled
//!    dataset is not touched — the mask rides on its spool to whichever
//!    pass opens it next (a stage load, the next barrier, egress), which
//!    steps over the dropped samples. The fingerprints come from the
//!    sidecars when the data carries them and no barrier consumed them yet
//!    (a spilled barrier then opens no frame; a columnar stage's mask
//!    leaves them valid, they hold the samples it kept); otherwise from one
//!    hash pass that borrows the hashed field's
//!    text — from resident samples in sample-balanced morsels, from an
//!    undecoded row slab, or from one decompressed column region — and
//!    only decodes whole samples for a deduplicator that hashes whole
//!    samples. Shard boundaries **carry through** the barrier: only
//!    in-memory shards the mask thins below half the pre-barrier average
//!    are merged into a neighbor, so a low-duplicate dataset pays
//!    near-zero barrier materialization instead of a full merge + re-split.
//!
//! Because shards are contiguous and merged in order, the output is
//! byte-identical to sequential single-shard execution for every shape,
//! shard count and worker count — checked against a naive reference
//! executor over the whole mode matrix in `tests/mode_matrix.rs`.
//!
//! ## Knobs
//!
//! * [`ExecOptions::num_workers`] — worker threads; defaults to
//!   `available_parallelism` (the recipe's `np` when built via
//!   [`executor_from_recipe`]). `1` processes one shard at a time and
//!   clusters on the calling thread. With more workers a barrier offers
//!   them to clustering once it holds ≥ 1024 samples per worker
//!   ([`RunReport::barrier_decisions`] records each decision); clustering
//!   runs the same code at any worker count and is held to all-pairs
//!   oracles, not to a one-worker run.
//! * [`ExecOptions::shard_size`] — samples per shard; `None` auto-shards
//!   to `4 × num_workers` shards. Exposed in recipe YAML as `shard_size`.
//! * [`ExecOptions::memory_budget`] / [`ExecOptions::spill_dir`] — the
//!   out-of-core knobs (recipe YAML `memory_budget` / `spill_dir`); see
//!   below.
//! * [`ExecOptions::prefetch_depth`] — shards in flight per worker while
//!   a pass streams from disk (default 2 = double buffering; 1 disables
//!   read-ahead; recipe YAML `prefetch_depth`). The streaming resident
//!   ceiling is `num_workers × prefetch_depth × shard_size` samples, on
//!   every spilled and file-backed shape.
//! * [`ExecOptions::input`] / [`ExecOptions::output`] /
//!   [`ExecOptions::output_format`] — the file-backed IO knobs for
//!   [`Executor::run_io`] (recipe YAML `input_path` / `output_path` /
//!   `output_format`); see below.
//! * [`ExecOptions::adaptive`] — measurement-driven planning (recipe YAML
//!   `adaptive`). Ranks fusible steps by measured ns/sample ÷ selectivity
//!   from the [`CostModel`], re-plans commutable stage suffixes mid-run
//!   (once per stage, after a quarter of its shards, clamped to `[1, 8]`),
//!   and auto-tunes unset streaming knobs from a warm model. Output is
//!   byte-identical to the static plan; see `docs/planning.md`.
//! * [`ExecOptions::stats_dir`] — directory for the persistent
//!   `planner_stats.djcs` cost sidecar (recipe YAML `stats_dir`). Without
//!   it, measurements persist only when `adaptive` is set per options
//!   *and* a cache is attached (sidecar lives at the cache root).
//! * [`ExecOptions::prefix_cache`] — per-op cache keying (recipe YAML
//!   `prefix_cache`): each step becomes its own cache stage keyed by the
//!   chained fingerprint of every step before it, so editing op *k*
//!   resumes ops `0..k` from cache.
//! * [`ExecOptions::columnar`] — columnar spill frames with projection
//!   pushdown (recipe YAML `columnar`).
//! * [`ExecOptions::on_error`] / [`ExecOptions::max_error_ratio`] — the
//!   record-level error policy (`docs/robustness.md`).
//!
//! The recipe (or these options) is the one place a run's shape is
//! chosen. The environment carries two host-level knobs only
//! ([`EnvKnobs`]): `DJ_MEMORY_BUDGET`, a byte cap for runs that set no
//! budget, and `DJ_FAULTS`, a chaos plan to replay. The test suite picks
//! shapes in process, through these options (`tests/mode_matrix.rs`).
//!
//! Three former knobs are constants or derived now, because no recipe,
//! test or benchmark needed another value: the post-barrier shard fill
//! threshold (0.5), the mid-run replan point (derived from the stage's
//! shard count, above) and the parallel-barrier switch (`num_workers: 1`
//! clusters with one worker). Recipes that still carry `shard_fill`,
//! `replan_after_shards` or `dedup_parallel` load; the keys are ignored.
//!
//! ## Out-of-core execution (spill-to-disk)
//!
//! When a `memory_budget` (bytes) is set — per options, per recipe, or via
//! the `DJ_MEMORY_BUDGET` env var — and the estimated dataset size exceeds
//! it, the engine spills the shard queue to disk and streams it:
//!
//! 1. The dataset is cut into shards sized so the streaming live set fits
//!    the budget (an explicit `shard_size` is honored as-is) and each shard
//!    is written to a `dj-store` [`ShardSpool`](dj_store::ShardSpool) — a
//!    directory of length-prefixed, checksummed, atomically-renamed frame
//!    files under `spill_dir` (default: the system temp dir).
//! 2. Each pipeline stage streams spool→spool through the driver:
//!    steppers read ahead into a bounded prefetch queue while others drive
//!    shards through the whole stage and spill the results —
//!    `prefetch_depth`-deep buffering, so disk IO overlaps compute and at
//!    most `prefetch_depth × num_workers` shards
//!    (`RunReport::peak_resident_samples` ≤ `num_workers ×
//!    prefetch_depth × shard_size`) are ever resident.
//! 3. When the stage feeding a dedup barrier spills, each shard is
//!    hashed as its frame is written and the fingerprints persist in a
//!    sidecar (fingerprint-on-ingest; see `docs/formats.md`). The
//!    barrier then opens **no frame**: it clusters the sidecar hashes and
//!    leaves its keep mask on the spool for the next pass to consume
//!    (`RunReport::fingerprinted_barriers` counts these).
//! 4. Every cache/checkpoint entry is a concatenation of sealed shard
//!    frames (`CacheManager::save_frames`): a spilled stage's slot files
//!    copied as they are, a resident stage's shards encoded one frame
//!    each. A resume pulls the frames back one at a time — decoded while
//!    they fit the budget, copied as bytes into spool slots once they do
//!    not — so persistence and resume never materialize the dataset
//!    either, and a columnar entry resumes as columnar slots.
//! 5. With [`ExecOptions::columnar`] spilled shards use the columnar
//!    `DJSC` frame format and every pass decodes only the top-level
//!    columns named by its steps' field footprints
//!    ([`Mapper::fields_read`](dj_core::Mapper::fields_read) et al.);
//!    untouched columns' regions are copied into the output frame
//!    verbatim, never decompressed. Samples the stage's filters dropped
//!    stay stored in its output frames; the verdicts ride on the new spool
//!    as its mask (the same one step 3's barriers leave), and leave the
//!    bytes only where the bytes leave the spool: egress or a cache save.
//!    `RunReport::bytes_decoded` / `RunReport::bytes_passthrough` account
//!    the split, and outputs stay byte-identical to row-format runs.
//!
//! ## File-backed execution ([`Executor::run_io`])
//!
//! With [`ExecOptions::input`] set (a JSONL/CSV path or glob), the whole
//! pipeline runs file-to-file as one continuous stream: the ingest stage
//! is the stage driver fed by a corpus reader (the plan's first pipeline
//! stage runs *during* ingest, and ingest-adjacent barriers get
//! fingerprint-on-ingest sidecars), every later stage streams as above,
//! and with [`ExecOptions::output`] set the result is written as
//! manifest-tracked shard parts (atomic temp+rename per part, append-only
//! commit log, resumable after a kill; `jsonl` or raw-frame `frames`
//! parts). The resident set stays ≤ `num_workers × prefetch_depth ×
//! shard_size` samples no matter the corpus size, and the output is
//! byte-identical to the in-memory engine on the concatenated corpus
//! (property-tested in `tests/io_roundtrip.rs`).
//!
//! Spools delete themselves when the run finishes or fails. The final
//! dataset returned by `run()` is materialized once, at the very end, for
//! the caller.
//!
//! ## Reporting & caching
//!
//! Per-shard [`ShardStats`](dj_core::ShardStats) accumulators merge into
//! the per-op [`OpReport`]s (counts add; durations take the cross-shard
//! max), so funnel/tracer/Fig. 4 outputs are unchanged from the
//! op-at-a-time engine. Cache/checkpoint entries (`dj-store`) are keyed on
//! **stage** boundaries — the only points where a full dataset exists —
//! with `RunReport::resumed_steps` still counting covered plan steps.

mod barrier;
pub mod cost;
mod data;
pub mod executor;
pub mod fusion;
pub mod options;
pub mod report;
pub mod runtime;
mod stage;
mod stream;

pub use cost::{fallback_score, rank_score, CostModel, EWMA_ALPHA, MIN_MEASURED_SAMPLES};
pub use executor::Executor;
pub use fusion::{plan_fused, plan_fused_measured, plan_unfused, Plan, PlanStep, Stage};
pub use io::{CorpusReader, EgressManifest, OutputFormat, ShardedWriter};
pub use options::{
    default_parallelism, executor_from_recipe, EnvKnobs, ExecOptions, DEFAULT_IO_SHARD_SIZE,
    DEFAULT_PREFETCH_DEPTH, FAULTS_ENV, MEMORY_BUDGET_ENV,
};
pub use report::{BarrierDecision, OpReport, RunReport, TraceEvent};
pub use runtime::{
    JobControl, JobHandle, JobOutput, JobProgress, RetryPolicy, Runtime, RuntimeConfig,
};

pub use dj_io as io;
