//! # dj-store — storage substrate (paper §4.1.1, §6)
//!
//! * [`codec`] — from-scratch compression (the LZ77-family "djz" codec
//!   standing in for zstd/LZ4), which only row `DJSF` frames and
//!   djbench's probes use: nothing on the spill or cache path is
//!   compressed;
//! * [`serialize`] — compact binary dataset format + JSONL import/export;
//! * [`cache`] — per-OP cache & checkpoint management with resume-from-
//!   longest-prefix, the backbone of the feedback-loop acceleration; an
//!   entry is a sealed [`ShardSpool`], saved by a rename, read in place;
//! * [`space`] — the Appendix A.2 space-usage model and the automatic
//!   cache/checkpoint deployment policy;
//! * [`frame`] — the one envelope (magic · length · version · `checksum64`
//!   · payload) every spool slot and cache seal record is sealed in, and
//!   the one [`Frame`] every spool slot (a cache entry's included) holds:
//!   the only module that checks an envelope or a spill frame's magic;
//! * [`shard_stream`] — the disk-backed [`ShardSpool`], the storage
//!   substrate of the out-of-core (spill-to-disk) execution mode; also row
//!   `DJSF` shard frames, which only djbench's probes still use;
//! * [`columnar`] — columnar `DJSC` shard frames, the one spill and cache
//!   format: per-column regions behind an offset table, each region its
//!   entries, uncompressed, so projection-aware stages decode only the
//!   columns their OPs' field footprints name and splice the rest through
//!   byte-for-byte; a column is stored as JSON text unless a value in it
//!   forbids that, and egress copies it;
//! * [`pool`] — the buffers a run reuses shard after shard (slot reads,
//!   frames being built), so the spill and egress path stops paying page
//!   faults on fresh multi-megabyte buffers for every shard;
//! * `transcode` — frame → JSONL transcoding ([`Frame::write_jsonl`]):
//!   spool egress copies JSON text straight from undecoded column regions,
//!   building a `Value` only for an entry of a demoted column.

// Panic-on-error is banned in library code: every unwrap/expect outside
// tests is either restructured away or carries an explicit `#[allow]`
// with its infallibility argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod codec;
pub mod columnar;
pub mod frame;
pub mod pool;
pub mod serialize;
pub mod shard_stream;
pub mod space;
mod transcode;

pub use cache::{open_seal_record, seal_record, CacheManager, CacheMode, ENTRY_SEAL_MAGIC};
pub use codec::{compress, decompress, Codec};
pub use columnar::{
    encode_columnar_frame, split_column_path, ColumnRegion, ColumnarSlab, FrameParts,
};
pub use frame::{envelope, Frame, COLUMNAR_FRAME_MAGIC, SHARD_FRAME_MAGIC};
pub use pool::{BufferPool, PooledBuf};
pub use serialize::{from_bytes, from_jsonl, to_bytes, to_jsonl, write_jsonl_into};

pub use shard_stream::{encode_shard_frame, FrameSlab, ShardSpool};
pub use space::{
    cache_mode_bytes, checkpoint_mode_peak_bytes, plan_storage, PipelineShape, StoragePlan,
};
