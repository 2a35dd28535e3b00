//! # dj-config — recipe configuration (paper §5.1)
//!
//! The all-in-one configuration layer:
//!
//! * [`yaml`] — a from-scratch YAML-subset parser/serializer for recipe
//!   files (block maps/lists, scalars, comments);
//! * [`recipe`] — the [`Recipe`] model with "subtraction"/"addition"
//!   editing, registry validation, OP instantiation and stable
//!   fingerprints (the executor's cache keys);
//! * [`recipes`] — a catalog of 20+ built-in recipe templates covering
//!   pre-training, fine-tuning, English, Chinese and domain-specific
//!   scenarios.
//!
//! ## Out-of-core execution
//!
//! Two recipe keys control the executor's spill-to-disk mode for corpora
//! larger than RAM:
//!
//! ```yaml
//! project_name: refine-web-xl
//! np: 8
//! shard_size: 4096          # optional; auto-sized from the budget if omitted
//! memory_budget: 8589934592 # bytes; spill when the dataset estimate exceeds it
//! spill_dir: /scratch/dj    # optional; defaults to the system temp dir
//! process:
//!   - whitespace_normalization_mapper:
//! ```
//!
//! Spilling engages automatically when the dataset's estimated byte size
//! exceeds `memory_budget`: shards stream through each pipeline stage from
//! checksummed frame files with bounded prefetch, holding at most
//! `np × prefetch_depth × shard_size` samples in memory (`prefetch_depth`
//! defaults to 2, double buffering), and the output is byte-identical to an
//! in-memory run. Omit `memory_budget` (or leave it larger than the
//! dataset) to keep everything in memory. Both keys participate in the
//! recipe fingerprint, so cached stages invalidate when they change.

pub mod recipe;
pub mod recipes;
pub mod yaml;

pub use recipe::{OpSpec, Recipe};
pub use yaml::{parse_yaml, to_yaml};
