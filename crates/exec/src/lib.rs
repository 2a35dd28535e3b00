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
//!    barrier's hash pass, ingest, egress — is the same loop
//!    (`stream::drive`): a *feed* yields `(shard index, loaded
//!    shard)`, pool workers claim shards (morsel-driven, over-partitioned
//!    ~4× the worker count so fast workers absorb stragglers) and run a
//!    *body* on each, and a *sink* stores the outcome. For a pipeline stage
//!    the body drives the shard through **every step of the stage** before
//!    touching the next shard: a sample flows through the whole
//!    mapper/filter chain while hot in cache, samples a filter drops never
//!    reach later steps, and no intermediate dataset is ever materialized.
//!    The loop owns the streaming contract — `num_workers` steppers, each
//!    claiming, loading, processing and releasing one shard per step, so
//!    at most `num_workers` shards are resident and `num_workers: 1` is one
//!    thread; cancellation, the `exec.shard.claim` fault site, residency
//!    accounting and shard progress each sit in exactly one place — and is
//!    the same code whatever shape the data is in. There is no read-ahead:
//!    the OS already reads sequential input ahead, and a spool slot is read
//!    back moments after it was written.
//! 4. **Shapes are feeds and sinks.** Where the data lives only decides
//!    which feed and sink the stage is handed (`data` module):
//!
//!    | shape | feed | sink | what is decoded |
//!    |---|---|---|---|
//!    | in memory | take the shard out of its slot | store into a slot | nothing — samples are resident |
//!    | spilled | read slot *i*, decode only the stage's footprint columns, carry the frame | splice: re-encode the decoded columns, copy every other region from the carried frame verbatim; dropped samples stay stored, masked | the footprint columns |
//!    | file ingest ([`ExecOptions::input`]) | cut the next `shard_size` records off a [`CorpusReader`], parsing only the fields some op reads or writes ([`Plan::columns_touched`]); the rest ride beside the shard as raw JSON text | encode a frame, the raw JSON columns stored as they were read; dropped samples stay stored, masked | the touched fields of each record |
//!
//!    A sink that writes frames also hashes each shard's survivors for
//!    the barrier that follows (fingerprint-on-ingest); they ride on the
//!    stage's output data in memory.
//! 5. **Barriers.** A `Stage::Barrier` is three steps on any shape:
//!    fingerprint every sample, cluster the dataset-level keep mask
//!    (`Deduplicator::cluster`: MinHash and SimHash sort `(key, id)` words
//!    per LSH band or 16-bit block on the worker pool and verify each run
//!    of equal keys into a lock-free concurrent union-find; exact and
//!    paragraph hashes elect first occurrences in one pass), and hand the
//!    mask to the data. The data is not touched, whatever its shape: the
//!    mask rides on the resident shards or the spool to whichever pass
//!    opens them next (a stage load, the next barrier, egress,
//!    materialization, a spill or a cache save), which steps over the
//!    dropped samples. The fingerprints are the ones the data carries,
//!    when the pass that wrote it hashed its survivors for this barrier
//!    (a spilled barrier then opens no frame; the barrier takes them, so
//!    a second barrier behind it hashes); otherwise they come from one
//!    hash pass that borrows the hashed field's text — from resident
//!    samples in sample-balanced morsels, or from one column
//!    region of a spilled frame — and only decodes whole samples for a
//!    deduplicator that hashes whole samples. Shard boundaries **carry
//!    through** the barrier unchanged, so it pays no materialization,
//!    merge or re-split.
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
//!   below. The streaming resident ceiling is `num_workers × shard_size`
//!   samples, on every spilled and file-backed shape.
//! * [`ExecOptions::input`] / [`ExecOptions::output`] — the IO knobs
//!   (recipe YAML `input_path` / `output_path`): the corpus
//!   [`Executor::run_io`] and [`Runtime::submit_io`] read, and the egress
//!   directory every input is written to as JSONL parts when set; see
//!   below. There is one output format, so no knob picks it: a run's
//!   columnar artifact is its cache entry (`docs/formats.md`).
//! * [`ExecOptions::adaptive`] — mid-run replanning (recipe YAML
//!   `adaptive`). Every pipeline stage, a corpus run's ingest stage
//!   included, re-ranks its commutable steps once by measured ns/sample ÷
//!   drop ratio: after a quarter of its shards, clamped to `[1, 8]`, or
//!   after 8 when the count is unknown until the feed runs dry. Output is
//!   byte-identical to the static plan, and nothing measured outlives the
//!   run; see `docs/planning.md`.
//! * [`ExecOptions::on_error`] / [`ExecOptions::max_error_ratio`] — the
//!   record-level error policy (`docs/robustness.md`).
//!
//! The recipe (or these options) is the one place a run is configured:
//! no library crate reads the environment. A host-level memory cap is
//! [`RuntimeConfig::memory_budget`] (`dj serve --memory-budget`). A chaos
//! plan is no run's option but process state its host installs
//! ([`dj_core::faults`]): `dj serve` installs one parsed from
//! `DJ_FAULTS`, the one variable the binary reads, before it replays its
//! journal. The test suite picks shapes in process, through these options
//! (`tests/mode_matrix.rs`).
//!
//! Seven former knobs are gone, because no recipe, test or benchmark
//! needed another value: the post-barrier shard fill threshold (barriers
//! no longer merge shards at all), the mid-run replan point (derived from
//! the stage's shard count, above), the parallel-barrier switch
//! (`num_workers: 1` clusters with one worker), the spill format switch
//! (every spool and cache entry is columnar), the prefetch depth (no
//! pass reads ahead), the per-step cache switch (a cache resumes at
//! stage granularity; see below) and the planner-stats directory (no
//! measurement outlives its run). Recipes that still carry `shard_fill`,
//! `replan_after_shards`, `dedup_parallel`, the read-ahead depth key, the
//! per-step cache key or the stats directory key load; the keys are
//! ignored. `columnar` is still parsed into the recipe, and reaches
//! nothing.
//!
//! ## Out-of-core execution (spill-to-disk)
//!
//! When a `memory_budget` (bytes) is set — per options, per recipe, or as a
//! runtime job's share of [`RuntimeConfig::memory_budget`] — and the
//! estimated dataset size exceeds it, the engine spills the shard queue to
//! disk and streams it:
//!
//! 1. The dataset is cut into shards sized so the streaming live set fits
//!    the budget (an explicit `shard_size` is honored as-is) and each shard
//!    is written to a `dj-store` [`ShardSpool`](dj_store::ShardSpool) — a
//!    directory of length-prefixed, checksummed, atomically-renamed frame
//!    files under `spill_dir` (default: the temp dir; see step 4 for a cache).
//! 2. Each pipeline stage streams spool→spool through the driver: each
//!    of `num_workers` steppers reads one slot, drives it through the
//!    whole stage and spills the result before it reads another, so at
//!    most `num_workers` shards (`RunReport::peak_resident_samples` ≤
//!    `num_workers × shard_size`) are ever resident.
//! 3. When the stage feeding a dedup barrier spills, each shard's
//!    survivors are hashed as its frame is written, and the stage's
//!    fingerprints ride to the barrier in memory on the stage data, the
//!    way its mask does (fingerprint-on-ingest; nothing but slot frames
//!    is written). The barrier then opens **no frame**: it clusters the
//!    carried hashes and leaves its keep mask on the spool for the next
//!    pass to consume (`RunReport::fingerprinted_barriers` counts these).
//! 4. Every cache/checkpoint entry is a sealed spool directory. A cached
//!    run spools under its cache root, so a spilled stage's spool becomes
//!    its entry by one rename and every byte is written once; resident
//!    shards are encoded one slot each. A resume checks every slot against
//!    the seal and decodes them while they fit the budget; past it the
//!    entry itself is the next stage's read-only input spool. Nothing is
//!    copied or materialized. An earlier release's entry is a miss.
//! 5. Spilled shards are columnar `DJSC` frames, and every pass decodes
//!    only the top-level columns named by its steps' field footprints
//!    ([`Mapper::fields_read`](dj_core::Mapper::fields_read) et al.);
//!    untouched columns' regions are passed into the output frame
//!    verbatim, never read. Samples the stage's filters dropped
//!    stay stored in its output frames; the verdicts ride on the new spool
//!    as its mask (the same one step 3's barriers leave), and leave the
//!    bytes only where the bytes leave the spool: egress or a cache save.
//!    `RunReport::bytes_decoded` / `RunReport::bytes_passthrough` account
//!    the split.
//!
//! ## One run sequencer: ingest, stages, egress
//!
//! [`Executor::run`], [`Executor::run_with_cache`], [`Executor::run_io`]
//! and every [`Runtime`] job run one sequencer: plan → cache resume or
//! ingest → the stage loop → ledger seal → egress or materialize. The
//! input is a resident dataset or the corpus named by
//! [`ExecOptions::input`] (a JSONL/CSV path or glob), ingested by the
//! stage driver fed by a corpus reader: the plan's first pipeline stage
//! runs *during* ingest into a growing spool, fingerprinting its shards
//! for an adjacent barrier. After ingest nothing knows the input
//! was a file. With [`ExecOptions::output`] set, whatever the input, the
//! result is written as manifest-tracked JSONL parts (atomic temp+rename
//! per part, append-only commit log, resumable after a kill); `run` and
//! `run_with_cache` refuse it, and materialize the result once, at the
//! very end. A file run keeps the
//! resident set ≤ `num_workers × shard_size` samples no
//! matter the corpus size, and its output is byte-identical to the
//! in-memory engine on the concatenated corpus (`tests/io_roundtrip.rs`).
//! Spools delete themselves when the run finishes or fails.
//!
//! ## Reporting & caching
//!
//! Per-shard [`ShardStats`](dj_core::ShardStats) accumulators merge into
//! the per-op [`OpReport`]s (counts add; durations take the cross-shard
//! max), so the Fig. 4(b) funnel is unchanged from the op-at-a-time
//! engine. The engine keeps no samples for inspection: the Fig. 4(a)
//! tracer is `dj_analyze::trace_op`, which dry-runs one op outside it.
//! Cache/checkpoint entries (`dj-store`) are saved at **stage**
//! boundaries — the only points where a full dataset exists —
//! and named by content identity: stage *k*'s key chains FNV-1a from the
//! resident input's digest over the identity (name and params, from
//! [`executor_from_recipe`]) of every op up to the last one stage *k*
//! covers. Stages are cut only at barriers, so fused, unfused and
//! reordered plans of one recipe share entries, a parameter edit misses
//! from its stage on, and another input misses everywhere.
//! `RunReport::resumed_steps` counts the plan steps the resumed stages
//! cover.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod barrier;
mod data;
pub mod executor;
pub mod fusion;
pub mod options;
pub mod report;
pub mod runtime;
mod stage;
mod stream;

pub use executor::Executor;
pub use fusion::{plan_fused, plan_unfused, Plan, PlanStep, Stage};
pub use io::{CorpusReader, EgressManifest, OutputFormat, ShardedWriter};
pub use options::{default_parallelism, executor_from_recipe, ExecOptions, DEFAULT_IO_SHARD_SIZE};
pub use report::{BarrierDecision, OpReport, RunReport};
pub use runtime::{JobControl, JobHandle, JobOutput, RetryPolicy, Runtime, RuntimeConfig};

pub use dj_io as io;
