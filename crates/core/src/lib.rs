//! # dj-core — unified data representation & operator abstractions
//!
//! The foundation crate of *data-juicer-rs*, a Rust reproduction of
//! **Data-Juicer: A One-Stop Data Processing System for Large Language
//! Models** (SIGMOD 2024).
//!
//! This crate provides:
//!
//! * [`Value`] — a dynamically-typed value tree with nested dotted-path
//!   access (`"text.abstract"`, `"stats.word_count"`), the intermediate
//!   representation of paper §3.1;
//! * [`Sample`] — one record, conceptually split into `"text"`, `"meta"`
//!   and `"stats"` parts;
//! * [`Dataset`] — an ordered sample collection with `map`/`filter`/
//!   partition/concat interfaces mirroring the Huggingface-datasets entry
//!   points the original system builds on;
//! * [`SampleContext`] — memoized derived views (words, lines, sentences)
//!   that power the context-management optimization of §6;
//! * the operator traits of Listing 1 ([`Formatter`], [`Mapper`],
//!   [`Filter`], [`Deduplicator`]) together with the type-erased [`Op`]
//!   and the [`OpRegistry`] extension point;
//! * [`RawColumns`] — the top-level fields of a file shard that no op
//!   reads, kept as canonical JSON text from ingest to egress
//!   ([`parse_record`] splits them off a record);
//! * [`faults`] — the deterministic fault-injection plan chaos tests
//!   replay (the `DJ_FAULTS` grammar), with named sites threaded through
//!   the storage, IO and execution crates.

// Panic-on-error is banned in library code: every unwrap/expect outside
// tests is either restructured away or carries an explicit `#[allow]`
// with its infallibility argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod context;
pub mod dataset;
pub mod error;
pub mod faults;
pub mod fingerprints;
pub mod json;
pub mod op;
pub mod pool;
pub mod raw;
pub mod sample;
pub mod shard;
pub mod sync;
pub mod value;

pub use context::{
    is_cjk, line_spans, segment_sentences, segment_words, sentence_spans, word_spans, CharCounts,
    ContextNeeds, SampleContext, Span, SpanIter, Spans,
};
pub use dataset::Dataset;
pub use error::{panic_message, DjError, OnError, Result};
pub use faults::{ErrKind, FaultGuard, FaultPlan, FaultSpec};
pub use fingerprints::{words_to_value, Fingerprints};
pub use json::{
    parse_json, parse_json_nested, parse_record, write_exact_json, write_json, write_json_f64,
    write_json_str, MAX_NESTING_DEPTH,
};
pub use op::{
    params, Deduplicator, FieldSet, Filter, Formatter, Mapper, Op, OpCost, OpFactory, OpKind,
    OpParams, OpRegistry, ParamView,
};
pub use pool::{Step, WorkerPool};
pub use raw::RawColumns;
pub use sample::{Sample, META_KEY, STATS_KEY, TEXT_KEY};
pub use shard::{MemShardStore, ResidencyGauge, ShardStats};
pub use value::Value;
