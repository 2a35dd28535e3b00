//! Row shard frames (`DJSF`) and the disk-backed [`ShardSpool`].
//!
//! A row frame is the [`crate::frame`] envelope around one codec-compressed
//! run of whole serialized samples (`compress(to_bytes(shard))`); the
//! payload reuses the self-describing [`Codec`] frame. The engine neither
//! writes nor reads one, and a spool slot holding one is refused:
//! [`encode_shard_frame`] and [`FrameSlab`] stay only because djbench's
//! `store.row.*` and `codec.*` probes call them, and go once the
//! benchmark's own change (ROADMAP item 2) retargets those probes.
//!
//! [`ShardSpool`] is a directory with one columnar (`DJSC`) frame file per
//! shard: a spilled stage's store, and once sealed a cache entry. Files are
//! written to a temporary name and atomically renamed, so a reader (or a
//! restarted run) never observes a partial frame, and every read goes
//! through the one checked [`ShardSpool::read`]. A spool reads slots into,
//! and encodes shards in, buffers from its [`BufferPool`] — the run's,
//! when the run hands it one — so a frame read or built for one shard
//! reuses the memory of the last. Unsealed, it removes its dir on drop.

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dj_core::{Dataset, DjError, RawColumns, Result};

use crate::codec::{compress, decompress, Codec};
use crate::columnar::{encode_ingested, encode_into, FrameParts};
use crate::frame::{checked_copy, envelope, Frame, SHARD_FRAME_MAGIC};
use crate::pool::{BufferPool, Holds, PooledBuf};
use crate::serialize::{from_bytes, to_bytes};

/// Codec for the tagged regions of every spool's frames: a spilled stage's
/// and a cache entry's alike, because a spilled stage becomes an entry by a
/// rename, so this is the one place it is chosen (cheap LZ77: spill IO
/// shrinks without a zstd-class CPU bill). Since every column is stored
/// as JSON text unless a value demotes it ([`crate::columnar`]'s rule),
/// only demoted columns are compressed, and on the djbench workloads none is:
/// the ingest spool of the `web-file` corpus (seed 11, 67.4 MB of JSONL)
/// took 27.7 MB with `text` and `stats` tagged and compressed, and takes
/// 75.9 MB as text, for 0.11 s of `egress_s` against 0.23 and 1.20 cpu-s
/// against 1.25 at `np: 1` (fixed-input `djbench child`, 10 pairs, medians
/// on a noisy 2-core VM). Those spool pages stay in the page cache on the
/// benchmark VM, so what the larger spool costs a spill that waits on the
/// disk is not measured. The measurements below are from before that
/// rule. Measured on `meta-file-col`'s shards (`djbench --trace 1`, 2-core
/// VM): ≈ 320 MB/s to compress, ≈ 770 MB/s to
/// decompress into fresh memory, 2.7× smaller: byte for byte, writing a
/// spilled frame costs the codec about 2.4 times what reading it back does.
///
/// `Codec::None` was measured against it on the same VM, with the run's
/// buffers reused. On the fixed-input `djbench child` at `np: 1` it took
/// 1.65 cpu-s against 1.95, with 11.1 k minor faults against 7.3 k and
/// 35 MB resident against 28. On `meta-file-col` it read `wall_s` 0.89 s
/// against 1.08 and `peak_rss_mb` 71 MB against 55 (3 pairs). Djz stays
/// for tagged regions: passthrough frames make a spool 2.7× larger on disk
/// and the run's peak memory 30 % larger. A benchmark spool lives about a
/// second, mostly in the page cache, so the timings here leave the disk
/// traffic out.
///
/// A raw JSON region (a field no op of a file run reads) is stored
/// uncompressed whatever this codec says ([`crate::columnar`]'s rule),
/// read in place, and passed on by a splice without a copy. Measured against Djz
/// for raw regions alone, on the same code otherwise (seed 11, 4
/// alternating pairs each, 2-core VM): `meta-file-col` `wall_s` 0.769 s
/// against 0.930 (−17 %, 4 of 4 pairs) at 47.6 MB `peak_rss_mb` against
/// 47.4; `serve-4tenant` 0.432 s against 0.446 and 126.4 MB against 131.4.
/// The ingest spool of the `meta-file-col` corpus (120 MB of JSONL) takes
/// 113.4 MB stored against 41.9 MB with Djz. Djz spent the time
/// compressing text at ingest and decompressing it into a second buffer
/// at egress. Djz did not lower `serve-4tenant`'s peak either: it was set
/// by the multi-MB blocks glibc kept once freed, not by live bytes, and
/// fell to ≈ 62 MB once `dj serve` fixed glibc's mmap threshold and its
/// jobs shared one buffer pool (`docs/service.md`, "Memory"; ≈ 50 MB with
/// the threshold alone on the code before the shared pool). What a
/// 2.7× larger spool costs a spill that waits on the disk is not
/// measured: a benchmark spool lives in the page cache.
pub(crate) const SPOOL_CODEC: Codec = Codec::Djz;

/// Encode one shard into a self-contained row frame (kept for djbench's
/// probes; see the module docs).
pub fn encode_shard_frame(shard: &Dataset, codec: Codec) -> Vec<u8> {
    envelope::seal(SHARD_FRAME_MAGIC, &compress(&to_bytes(shard), codec))
}

/// A row frame loaded but not decoded: its verified, decompressed payload
/// (kept for djbench's probes; see the module docs).
#[derive(Debug)]
pub struct FrameSlab {
    payload: Vec<u8>,
}

impl FrameSlab {
    /// Parse one row frame held fully in memory (exactly one: trailing
    /// bytes are refused).
    pub fn from_frame_bytes(frame: &[u8]) -> Result<FrameSlab> {
        let (magic, payload) = envelope::open_one(frame)?;
        if &magic != SHARD_FRAME_MAGIC {
            return Err(DjError::Storage("not a row shard frame".into()));
        }
        Ok(FrameSlab {
            payload: decompress(payload)?,
        })
    }

    /// Full decode into an owned dataset.
    pub fn decode(&self) -> Result<Dataset> {
        from_bytes(&self.payload)
    }
}

/// A directory of shard frame files: the disk backing of spilled stages and cache entries.
///
/// Slot `i` lives in `shard-i.djs`, written atomically (temp file + rename)
/// so crashes and concurrent readers never see partial frames; the spool
/// holds slot frames and nothing else (a barrier's fingerprints ride in
/// memory on the executor's stage data). Distinct slots may be written
/// concurrently. The directory and its contents are removed when the spool
/// drops, unless it is sealed.
pub struct ShardSpool {
    pub(crate) dir: PathBuf,
    pub(crate) pool: BufferPool,
    /// Samples stored per written slot (`None` until stored) — the shard
    /// layout metadata a keep mask over the stored samples is sized by
    /// (a frame may store samples such a mask drops). Grows on demand so
    /// streaming ingest can append slots before the total shard count is
    /// known.
    pub(crate) lens: Mutex<Vec<Option<usize>>>,
    /// A cache entry ([`crate::cache`]): read-only, and outlives the spool.
    pub(crate) sealed: bool,
}

impl ShardSpool {
    /// Create a spool with `slots` shard slots rooted at `dir` (created,
    /// including parents, if missing), with a pool of its own. Writing
    /// past `slots` grows the spool — pass 0 for a stream of unknown
    /// length.
    pub fn create(dir: impl Into<PathBuf>, slots: usize) -> Result<ShardSpool> {
        ShardSpool::create_pooled(dir, slots, BufferPool::default())
    }

    /// [`create`](ShardSpool::create) a spool that reads and encodes in
    /// buffers from `pool`: a run hands every spool it makes its one pool.
    pub fn create_pooled(
        dir: impl Into<PathBuf>,
        slots: usize,
        pool: BufferPool,
    ) -> Result<ShardSpool> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ShardSpool {
            dir,
            pool,
            lens: Mutex::new(vec![None; slots]),
            sealed: false,
        })
    }

    /// Whether this spool is a sealed cache entry.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn shard_count(&self) -> usize {
        dj_core::sync::lock(&self.lens).len()
    }

    pub(crate) fn slot_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx:05}.djs"))
    }

    /// Encode `shard` into slot `idx` (atomic: temp file then rename).
    pub fn write_shard(&self, idx: usize, shard: &Dataset) -> Result<()> {
        let frame = encode_into(shard, SPOOL_CODEC, &self.pool);
        self.write_frame_bytes(idx, &frame, shard.len())
    }

    /// Store a shard read from text into slot `idx`: `processed`, the
    /// samples `keep` kept of those the reader produced, beside the
    /// reader's `raw` JSON columns, copied as they are. Every sample read
    /// stays stored, a dropped one with no entry, for `keep` to mask.
    /// Returns the samples stored.
    pub fn write_ingested(
        &self,
        idx: usize,
        processed: &Dataset,
        raw: &RawColumns,
        keep: &[bool],
    ) -> Result<usize> {
        let frame = encode_ingested(processed, raw, keep, SPOOL_CODEC, &self.pool)?;
        self.write_frame_bytes(idx, &frame, keep.len())?;
        Ok(keep.len())
    }

    /// Store a pre-encoded frame (a frame copied out of another spool) into
    /// slot `idx` atomically, recording `samples` as the number of samples
    /// the frame stores. A sealed spool refuses it.
    pub fn write_frame_bytes(&self, idx: usize, frame: &[u8], samples: usize) -> Result<()> {
        self.write_pieces(idx, [frame].into_iter(), samples)
    }

    /// [`write_frame_bytes`](ShardSpool::write_frame_bytes) of a frame in
    /// pieces (a column splice), written one after another.
    pub fn write_frame(&self, idx: usize, frame: &FrameParts<'_>, samples: usize) -> Result<()> {
        self.write_pieces(idx, frame.pieces(), samples)
    }

    fn write_pieces<'p>(
        &self,
        idx: usize,
        pieces: impl Iterator<Item = &'p [u8]>,
        samples: usize,
    ) -> Result<()> {
        if self.sealed {
            let dir = &self.dir;
            return Err(DjError::Storage(format!("{dir:?} is a sealed cache entry")));
        }
        let path = self.slot_path(idx);
        let tmp = path.with_extension("djs.tmp");
        if dj_core::faults::armed("store.frame.write") {
            // Chaos path: damage the bytes *after* the frame checksum was
            // computed, like real media corruption — the error surfaces
            // at whichever read validates this slot.
            let mut bytes: Vec<u8> = pieces.flatten().copied().collect();
            dj_core::faults::corrupt("store.frame.write", &mut bytes)?;
            fs::write(&tmp, &bytes)?;
        } else {
            let mut file = File::create(&tmp)?;
            for piece in pieces {
                file.write_all(piece)?;
            }
        }
        fs::rename(&tmp, &path)?;
        let mut lens = dj_core::sync::lock(&self.lens);
        if idx >= lens.len() {
            lens.resize(idx + 1, None);
        }
        lens[idx] = Some(samples);
        Ok(())
    }

    /// Slot `idx`'s frame file as it stands on disk — the one place a slot
    /// is read, and so the `store.frame.read` fault site. Nothing that
    /// comes out of here is used before its checksum was verified.
    /// It is read into a buffer from the spool's pool.
    fn slot_bytes(&self, idx: usize) -> Result<PooledBuf> {
        let path = self.slot_path(idx);
        let missing = |e: std::io::Error| {
            DjError::Storage(format!("spilled shard {idx} missing at {path:?}: {e}"))
        };
        let mut file = File::open(&path).map_err(missing)?;
        let len = file.metadata().map_err(missing)?.len();
        let mut bytes = self.pool.take(Holds::Frames, len.try_into().unwrap_or(0));
        file.read_to_end(&mut bytes).map_err(missing)?;
        dj_core::faults::corrupt("store.frame.read", &mut bytes)?;
        Ok(bytes)
    }

    /// Load slot `idx`: checksum verified, stored samples held to the
    /// slot's record, nothing decoded — the frame keeps the buffer the slot
    /// was read into. Non-destructive: spilled shards can be re-streamed.
    pub fn read(&self, idx: usize) -> Result<Frame> {
        let frame = Frame::parse_owned(self.slot_bytes(idx)?)?;
        let (stored, recorded) = (frame.sample_count(), self.shard_len(idx));
        if recorded.is_some_and(|n| n != stored) {
            let msg = format!("spool slot {idx} stores {stored} samples, not as recorded");
            return Err(DjError::Storage(msg));
        }
        Ok(frame)
    }

    /// Slot `idx` decoded whole.
    pub fn read_shard(&self, idx: usize) -> Result<Dataset> {
        Ok(self.read(idx)?.decode(None, None)?.0)
    }

    /// Slot `idx` as frame bytes holding the samples `keep` keeps — how a
    /// masked slot goes into a cache entry.
    /// Without a mask that is a checked copy of the slot file; with one the
    /// frame is re-encoded from the kept entries' byte ranges. No value is
    /// decoded either way.
    pub fn read_frame_bytes(&self, idx: usize, keep: Option<&[bool]>) -> Result<Vec<u8>> {
        checked_copy(self.slot_bytes(idx)?, keep)
    }

    /// Samples stored in slot `idx`, if it has been written.
    pub fn shard_len(&self, idx: usize) -> Option<usize> {
        dj_core::sync::lock(&self.lens).get(idx).copied().flatten()
    }
}

impl Drop for ShardSpool {
    fn drop(&mut self) {
        // Spill data is transient: leave no temp dirs (an entry is no spill).
        if !self.sealed {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::Sample;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dj-shard-stream-{tag}-{}", std::process::id()))
    }

    fn shard(texts: &[&str]) -> Dataset {
        Dataset::from_texts(texts.iter().copied())
    }

    fn rich_shard() -> Dataset {
        let mut ds = Dataset::new();
        let mut s = Sample::from_text("hello\nworld");
        s.set_stat("wc", 2.0);
        s.set_meta("lang", "en");
        ds.push(s);
        ds.push(Sample::from_text("数据处理系统 — out-of-core 実行"));
        ds
    }

    #[test]
    fn frame_roundtrip_all_codecs() {
        for codec in [Codec::None, Codec::Djz] {
            for ds in [Dataset::new(), shard(&["a", "b"]), rich_shard()] {
                let frame = encode_shard_frame(&ds, codec);
                let back = FrameSlab::from_frame_bytes(&frame)
                    .unwrap()
                    .decode()
                    .unwrap();
                assert_eq!(back, ds, "codec {codec:?}");
            }
        }
    }

    #[test]
    fn large_shard_spans_many_codec_windows() {
        // Serialized payload far beyond the 64 KiB djz window and any
        // internal buffer size.
        let texts: Vec<String> = (0..4000)
            .map(|i| format!("document {i} with enough body text to add up — padding padding"))
            .collect();
        let big = Dataset::from_texts(texts);
        assert!(
            to_bytes(&big).len() > 128 * 1024,
            "payload must span windows"
        );
        for codec in [Codec::None, Codec::Djz] {
            let frame = encode_shard_frame(&big, codec);
            let back = FrameSlab::from_frame_bytes(&frame)
                .unwrap()
                .decode()
                .unwrap();
            assert_eq!(back, big, "codec {codec:?}");
        }
    }

    #[test]
    fn spool_write_read_and_cleanup_on_drop() {
        let dir = tmpdir("spool");
        let shards = [shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        {
            let spool = ShardSpool::create(&dir, 3).unwrap();
            for (i, s) in shards.iter().enumerate() {
                spool.write_shard(i, s).unwrap();
            }
            assert_eq!(spool.shard_len(0), Some(3));
            assert_eq!(spool.shard_len(1), Some(0));
            assert_eq!(spool.shard_len(2), Some(2));
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(&spool.read_shard(i).unwrap(), s);
            }
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spool must remove its dir on drop");
    }

    #[test]
    fn spool_detects_truncation_and_missing_shards() {
        let dir = tmpdir("spool-corrupt");
        let spool = ShardSpool::create(&dir, 2).unwrap();
        spool.write_shard(0, &rich_shard()).unwrap();
        // Truncate the file as a mid-write kill would (without the atomic
        // rename protection).
        let path = dir.join("shard-00000.djs");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = spool.read_shard(0).unwrap_err();
        assert!(matches!(err, DjError::Storage(_)), "{err}");
        // Slot 1 was never written.
        let err = spool.read_shard(1).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn spool_leftover_tmp_file_is_invisible_to_readers() {
        // A kill between `fs::write(tmp)` and `fs::rename` leaves only a
        // `.tmp` file; the slot then correctly reads as missing, and a
        // rewrite replaces it atomically.
        let dir = tmpdir("spool-tmp");
        let spool = ShardSpool::create(&dir, 1).unwrap();
        fs::write(
            dir.join("shard-00000.djs.tmp"),
            b"partial frame from a killed run",
        )
        .unwrap();
        assert!(spool.read_shard(0).is_err());
        spool.write_shard(0, &shard(&["recovered"])).unwrap();
        assert_eq!(spool.read_shard(0).unwrap(), shard(&["recovered"]));
    }

    #[test]
    fn spool_grows_past_initial_slots() {
        let dir = tmpdir("spool-grow");
        let spool = ShardSpool::create(&dir, 0).unwrap();
        assert_eq!(spool.shard_count(), 0);
        spool.write_shard(0, &shard(&["a"])).unwrap();
        spool.write_shard(2, &rich_shard()).unwrap();
        assert_eq!(spool.shard_count(), 3);
        assert_eq!(spool.shard_len(0), Some(1));
        assert_eq!(spool.shard_len(1), None);
        assert_eq!(spool.shard_len(2), Some(2));
        spool.write_shard(1, &Dataset::new()).unwrap();
        assert_eq!(spool.shard_len(1), Some(0));
    }

    #[test]
    fn a_spool_holds_columnar_frames_and_refuses_row_frames() {
        let dir = tmpdir("spool-format");
        let shards = [shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        let spool = ShardSpool::create(&dir, 3).unwrap();
        for (i, s) in shards.iter().enumerate() {
            spool.write_shard(i, s).unwrap();
        }
        for (i, s) in shards.iter().enumerate() {
            let slot = fs::read(dir.join(format!("shard-{i:05}.djs"))).unwrap();
            assert_eq!(slot, Frame::encode(s, Codec::Djz));
            assert_eq!(&spool.read_shard(i).unwrap(), s);
            // Byte reads copy the slot.
            assert_eq!(spool.read_frame_bytes(i, None).unwrap(), slot);
        }
        // A pre-encoded frame lands like any other write, in a codec the
        // spool would not pick, and reads back through the same calls.
        let frame = Frame::encode(&shards[0], Codec::None);
        spool.write_frame_bytes(1, &frame, shards[0].len()).unwrap();
        assert_eq!(spool.read_shard(1).unwrap(), shards[0]);
        assert_eq!(spool.shard_len(1), Some(3));
        assert_eq!(spool.read_frame_bytes(1, None).unwrap(), frame);
        // A row frame in a slot is refused by every read, typed.
        let row = encode_shard_frame(&shards[0], Codec::Djz);
        spool.write_frame_bytes(1, &row, shards[0].len()).unwrap();
        for err in [
            spool.read(1).map(drop).unwrap_err(),
            spool.read_shard(1).map(drop).unwrap_err(),
            spool.read_frame_bytes(1, None).map(drop).unwrap_err(),
        ] {
            assert!(matches!(err, DjError::Storage(_)), "{err:?}");
        }
    }

    #[test]
    fn frame_slab_matches_full_decode() {
        let ds = rich_shard();
        let slab = FrameSlab::from_frame_bytes(&encode_shard_frame(&ds, Codec::Djz)).unwrap();
        assert_eq!(slab.decode().unwrap(), ds);
        // A row slab is only ever built from a row frame.
        let columnar = Frame::encode(&ds, Codec::Djz);
        assert!(FrameSlab::from_frame_bytes(&columnar).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Frame encode→decode is the identity for arbitrary (including
        /// unicode-heavy) sample texts under every codec.
        #[test]
        fn prop_frame_roundtrip(
            texts in proptest::collection::vec(".{0,60}", 0..12),
            codec_id in 0u8..2,
        ) {
            let codec = [Codec::None, Codec::Djz][codec_id as usize];
            let ds = Dataset::from_texts(texts);
            let frame = encode_shard_frame(&ds, codec);
            let back = FrameSlab::from_frame_bytes(&frame).unwrap().decode().unwrap();
            prop_assert_eq!(back, ds);
        }
    }
}
