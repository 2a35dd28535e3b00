//! Row shard frames (`DJSF`) and the disk-backed [`ShardSpool`].
//!
//! A row frame is the [`crate::frame`] envelope around one codec-compressed
//! run of whole serialized samples (`compress(to_bytes(shard))`); the
//! payload reuses the self-describing [`Codec`] frame, so frames of
//! different codecs can sit side by side. [`FrameSlab`] is the frame loaded
//! but not decoded.
//!
//! [`ShardSpool`] is a directory with one frame file per shard — row or
//! columnar — the disk backing of the executor's spill path. Files are
//! written to a temporary name and atomically renamed, so a reader (or a
//! restarted run) never observes a partial frame, and every read goes
//! through the one checked [`ShardSpool::read`]. The spool removes its
//! directory on drop.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dj_core::{Dataset, DjError, Fingerprints, Result, Sample};

use crate::codec::{compress, decompress, Codec};
use crate::columnar::encode_columnar_frame;
use crate::frame::{checked_copy, envelope, Frame, FINGERPRINT_MAGIC, SHARD_FRAME_MAGIC};
use crate::serialize::{
    le_u64, read_header, read_value_slice, sample_count, skip_value, texts_at, to_bytes,
};
use crate::transcode::{check_mask, keeps};

/// Encode one shard into a self-contained row frame.
pub fn encode_shard_frame(shard: &Dataset, codec: Codec) -> Vec<u8> {
    envelope::seal(SHARD_FRAME_MAGIC, &compress(&to_bytes(shard), codec))
}

/// A loaded-but-undecoded shard frame: the zero-copy spool read path.
///
/// [`FrameSlab::from_frame_bytes`] takes a slot file read once, verifies its
/// checksum, and decompresses into a single contiguous payload slab.
/// [`FrameSlab::texts_at`] then borrows `Cow<'_, str>` text slices straight
/// out of that slab without constructing `Sample`s — so a dedup hash pass
/// over a spilled shard touches each text byte once and never copies
/// strings the ops won't mutate.
#[derive(Debug)]
pub struct FrameSlab {
    payload: Vec<u8>,
}

impl FrameSlab {
    /// Parse one row frame held fully in memory (exactly one: trailing
    /// bytes are refused, the spool slot-file invariant).
    pub fn from_frame_bytes(frame: &[u8]) -> Result<FrameSlab> {
        match Frame::parse(frame)? {
            Frame::Row(slab) => Ok(slab),
            Frame::Col(_) => Err(DjError::Storage("not a row shard frame".into())),
        }
    }

    /// The slab of a row frame's verified payload.
    pub(crate) fn from_payload(payload: &[u8]) -> Result<FrameSlab> {
        Ok(FrameSlab {
            payload: decompress(payload)?,
        })
    }

    /// Decompressed payload size in bytes (the slab's memory footprint).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Sample count, read from the payload header without decoding.
    pub fn sample_count(&self) -> Result<usize> {
        sample_count(&self.payload)
    }

    /// Borrow the text at dotted path `field` for every sample.
    pub fn texts_at(&self, field: &str) -> Result<Vec<std::borrow::Cow<'_, str>>> {
        texts_at(&self.payload, field)
    }

    /// Full decode into an owned dataset (the copying fallback).
    pub fn decode(&self) -> Result<Dataset> {
        self.decode_kept(None)
    }

    /// Decode the samples `keep` keeps (all of them without a mask); a
    /// masked-out sample is stepped over, never built.
    pub fn decode_kept(&self, keep: Option<&[bool]>) -> Result<Dataset> {
        let mut samples = Vec::new();
        self.walk(keep, |cur| {
            samples.push(Sample::from_value(read_value_slice(cur)?)?);
            Ok(())
        })?;
        Ok(Dataset::from_samples(samples))
    }

    /// Re-encode this frame with only the samples `keep` keeps, copying
    /// their serialized byte ranges — the row twin of
    /// [`ColumnarSlab::filter_frame`](crate::ColumnarSlab::filter_frame); no
    /// value is decoded. The result equals `encode_shard_frame` of the
    /// decoded-then-masked shard.
    pub fn filter_frame(&self, keep: &[bool], codec: Codec) -> Result<Vec<u8>> {
        let kept = keep.iter().filter(|k| **k).count();
        let mut body = Vec::with_capacity(self.payload.len());
        body.extend(self.payload.first());
        body.extend_from_slice(&(kept as u64).to_le_bytes());
        self.walk(Some(keep), |cur| {
            let entry = *cur;
            skip_value(cur)?;
            body.extend_from_slice(&entry[..entry.len() - cur.len()]);
            Ok(())
        })?;
        Ok(envelope::seal(SHARD_FRAME_MAGIC, &compress(&body, codec)))
    }

    /// Visit every kept sample's serialized value with a cursor positioned
    /// at it (`visit` must consume exactly that value); masked-out samples
    /// are skipped.
    pub(crate) fn walk(
        &self,
        keep: Option<&[bool]>,
        mut visit: impl FnMut(&mut &[u8]) -> Result<()>,
    ) -> Result<()> {
        let (samples, mut cur) = read_header(&self.payload, "dataset")?;
        check_mask(keep, samples)?;
        for i in 0..samples {
            if keeps(keep, i) {
                visit(&mut cur)?;
            } else {
                skip_value(&mut cur)?;
            }
        }
        if !cur.is_empty() {
            return Err(DjError::Storage("trailing bytes after dataset".into()));
        }
        Ok(())
    }
}

/// One shard's fingerprints as a sealed sidecar: the envelope, magic `DJFP`,
/// around the sample count (`u64`), each sample's end offset into the words
/// (`u32`) and the words (`u64`), all little-endian.
pub fn seal_fingerprints(fingerprints: &Fingerprints) -> Vec<u8> {
    let (words, ends) = (fingerprints.words(), fingerprints.ends());
    let mut payload = Vec::with_capacity(8 + 4 * ends.len() + 8 * words.len());
    payload.extend_from_slice(&(ends.len() as u64).to_le_bytes());
    payload.extend(ends.iter().flat_map(|end| end.to_le_bytes()));
    payload.extend(words.iter().flat_map(|word| word.to_le_bytes()));
    envelope::seal(FINGERPRINT_MAGIC, &payload)
}

/// Open what [`seal_fingerprints`] sealed (exactly one sidecar). The count
/// is checked against the bytes that are there before anything is sized by
/// it, the offsets against the words.
pub fn open_fingerprints(sealed: &[u8]) -> Result<Fingerprints> {
    let bad = |what: &str| DjError::Storage(format!("fingerprint sidecar: {what}"));
    let (magic, payload) = envelope::open_one(sealed)?;
    if &magic != FINGERPRINT_MAGIC {
        return Err(bad("bad magic"));
    }
    let (count, rest) = payload
        .split_at_checked(8)
        .ok_or_else(|| bad("no sample count"))?;
    let (ends, words) = usize::try_from(le_u64(count))
        .ok()
        .and_then(|count| count.checked_mul(4))
        .and_then(|len| rest.split_at_checked(len))
        .ok_or_else(|| bad("fewer end offsets than samples"))?;
    let (ends, _) = ends.as_chunks::<4>();
    let (words, tail) = words.as_chunks::<8>();
    if !tail.is_empty() {
        return Err(bad("words are not whole"));
    }
    Fingerprints::from_parts(
        words.iter().map(|w| u64::from_le_bytes(*w)).collect(),
        ends.iter().map(|e| u32::from_le_bytes(*e)).collect(),
    )
}

/// A directory of shard frame files: the disk backing of spilled stages.
///
/// Slot `i` lives in `shard-i.djs`, written atomically (temp file + rename)
/// so crashes and concurrent readers never see partial frames. Distinct
/// slots may be written concurrently. The directory and its contents are
/// removed when the spool drops.
pub struct ShardSpool {
    dir: PathBuf,
    codec: Codec,
    /// Which format [`write_shard`](ShardSpool::write_shard) encodes:
    /// columnar (`DJSC`) instead of row frames. Reads take whatever format a
    /// slot holds, so a resumed or rehydrated spool can mix them.
    columnar: bool,
    /// Sample count per written slot (`None` until stored) — the shard
    /// layout metadata the dedup barrier needs to slice its dataset-level
    /// mask back into shards. Grows on demand so streaming ingest can
    /// append slots before the total shard count is known.
    lens: Mutex<Vec<Option<usize>>>,
}

impl ShardSpool {
    /// Create a spool with `slots` shard slots rooted at `dir` (created,
    /// including parents, if missing). Writing past `slots` grows the
    /// spool — pass 0 for a stream of unknown length.
    pub fn create(dir: impl Into<PathBuf>, slots: usize, codec: Codec) -> Result<ShardSpool> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ShardSpool {
            dir,
            codec,
            columnar: false,
            lens: Mutex::new(vec![None; slots]),
        })
    }

    /// Like [`create`](ShardSpool::create), but shards written through
    /// [`write_shard`](ShardSpool::write_shard) are stored as columnar
    /// `DJSC` frames, enabling projection ([`Frame::decode`]) and
    /// byte-for-byte column splicing ([`Frame::store_processed`]).
    pub fn create_columnar(
        dir: impl Into<PathBuf>,
        slots: usize,
        codec: Codec,
    ) -> Result<ShardSpool> {
        let mut spool = ShardSpool::create(dir, slots, codec)?;
        spool.columnar = true;
        Ok(spool)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn shard_count(&self) -> usize {
        dj_core::sync::lock(&self.lens).len()
    }

    fn slot_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx:05}.djs"))
    }

    fn sidecar_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx:05}.fpr"))
    }

    /// Serialize `shard` into slot `idx` (atomic: temp file then rename).
    /// Row or columnar frame per the spool's mode.
    pub fn write_shard(&self, idx: usize, shard: &Dataset) -> Result<()> {
        let frame = if self.columnar {
            encode_columnar_frame(shard, self.codec)
        } else {
            encode_shard_frame(shard, self.codec)
        };
        self.write_frame_bytes(idx, &frame, shard.len())
    }

    /// Store a pre-encoded frame (row or columnar — a column splice, a
    /// frame copied out of a cache entry) into slot `idx` atomically,
    /// recording `samples` as the slot's sample count.
    pub fn write_frame_bytes(&self, idx: usize, frame: &[u8], samples: usize) -> Result<()> {
        let path = self.slot_path(idx);
        let tmp = path.with_extension("djs.tmp");
        if dj_core::faults::armed("store.frame.write") {
            // Chaos path: damage the bytes *after* the frame checksum was
            // computed, like real media corruption — the error surfaces
            // at whichever read validates this slot.
            let mut bytes = frame.to_vec();
            dj_core::faults::corrupt("store.frame.write", &mut bytes)?;
            fs::write(&tmp, &bytes)?;
        } else {
            fs::write(&tmp, frame)?;
        }
        fs::rename(&tmp, &path)?;
        let mut lens = dj_core::sync::lock(&self.lens);
        if idx >= lens.len() {
            lens.resize(idx + 1, None);
        }
        lens[idx] = Some(samples);
        Ok(())
    }

    /// Persist per-sample dedup fingerprints for slot `idx` in its sidecar
    /// (`shard-N.fpr`, atomic temp+rename). Fingerprints travel with the
    /// frame so a later dedup barrier can skip its hash pass entirely.
    pub fn write_fingerprints(&self, idx: usize, fingerprints: &Fingerprints) -> Result<()> {
        let mut out = seal_fingerprints(fingerprints);
        dj_core::faults::corrupt("store.fpr.write", &mut out)?;
        let path = self.sidecar_path(idx);
        let tmp = path.with_extension("fpr.tmp");
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Read slot `idx`'s fingerprint sidecar. `Ok(None)` when the sidecar
    /// was never written; corruption is a [`DjError::Storage`] error.
    pub fn read_fingerprints(&self, idx: usize) -> Result<Option<Fingerprints>> {
        let path = self.sidecar_path(idx);
        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        dj_core::faults::corrupt("store.fpr.read", &mut bytes)?;
        open_fingerprints(&bytes)
            .map(Some)
            .map_err(|e| DjError::Storage(format!("{path:?}: {e}")))
    }

    /// All fingerprints across all slots, in slot order — `Ok(None)` unless
    /// *every* written slot has a sidecar whose sample count matches its
    /// shard (a partial set cannot seed a barrier).
    pub fn read_all_fingerprints(&self) -> Result<Option<Fingerprints>> {
        let mut all = Fingerprints::with_capacity(self.total_samples());
        for i in 0..self.shard_count() {
            let Some(expected) = self.shard_len(i) else {
                return Ok(None);
            };
            match self.read_fingerprints(i)? {
                Some(fp) if fp.len() == expected => all.append(&fp)?,
                _ => return Ok(None),
            }
        }
        Ok(Some(all))
    }

    /// Slot `idx`'s frame file as it stands on disk — the one place a slot
    /// is read, and so the `store.frame.read` fault site. Nothing that
    /// comes out of here is used before its checksum was verified.
    fn slot_bytes(&self, idx: usize) -> Result<Vec<u8>> {
        let path = self.slot_path(idx);
        let mut bytes = fs::read(&path).map_err(|e| {
            DjError::Storage(format!("spilled shard {idx} missing at {path:?}: {e}"))
        })?;
        dj_core::faults::corrupt("store.frame.read", &mut bytes)?;
        Ok(bytes)
    }

    /// Load slot `idx`: checksum verified, format taken from the frame,
    /// nothing decoded. Non-destructive: spilled shards can be re-streamed.
    pub fn read(&self, idx: usize) -> Result<Frame> {
        Frame::parse(&self.slot_bytes(idx)?)
    }

    /// Slot `idx` decoded whole.
    pub fn read_shard(&self, idx: usize) -> Result<Dataset> {
        Ok(self.read(idx)?.decode(None, None)?.0)
    }

    /// Slot `idx` as frame bytes holding the samples `keep` keeps, in the
    /// format the slot has — how a spool is persisted as a cache entry.
    /// Without a mask that is a checked copy of the slot file; with one the
    /// frame is re-encoded from the kept entries' byte ranges. No value is
    /// decoded either way.
    pub fn read_frame_bytes(&self, idx: usize, keep: Option<&[bool]>) -> Result<Vec<u8>> {
        checked_copy(self.slot_bytes(idx)?, keep, false, self.codec)
    }

    /// [`read_frame_bytes`](ShardSpool::read_frame_bytes) as a *row* frame,
    /// whatever the slot holds — the `frames` output contract. A row slot
    /// is copied (or entry-filtered) as above; a columnar slot is decoded
    /// and re-encoded, the one conversion that contract requires.
    pub fn read_row_frame_bytes(&self, idx: usize, keep: Option<&[bool]>) -> Result<Vec<u8>> {
        checked_copy(self.slot_bytes(idx)?, keep, true, self.codec)
    }

    /// Sample count of slot `idx`, if it has been written.
    pub fn shard_len(&self, idx: usize) -> Option<usize> {
        dj_core::sync::lock(&self.lens).get(idx).copied().flatten()
    }

    /// Total samples across all written slots.
    pub fn total_samples(&self) -> usize {
        (0..self.shard_count())
            .filter_map(|i| self.shard_len(i))
            .sum()
    }

    /// Bytes currently on disk in this spool.
    pub fn disk_usage(&self) -> u64 {
        (0..self.shard_count())
            .filter_map(|i| fs::metadata(self.slot_path(i)).ok())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for ShardSpool {
    fn drop(&mut self) {
        // Spill data is transient by definition: leave no temp dirs behind.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_shard_frame;
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
                let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
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
            let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
            assert_eq!(back, big, "codec {codec:?}");
        }
    }

    #[test]
    fn spool_write_read_and_cleanup_on_drop() {
        let dir = tmpdir("spool");
        let shards = [shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        {
            let spool = ShardSpool::create(&dir, 3, Codec::Djz).unwrap();
            for (i, s) in shards.iter().enumerate() {
                spool.write_shard(i, s).unwrap();
            }
            assert_eq!(spool.shard_len(0), Some(3));
            assert_eq!(spool.shard_len(1), Some(0));
            assert_eq!(spool.total_samples(), 5);
            assert!(spool.disk_usage() > 0);
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
        let spool = ShardSpool::create(&dir, 2, Codec::Djz).unwrap();
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
        let spool = ShardSpool::create(&dir, 1, Codec::Djz).unwrap();
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
        let spool = ShardSpool::create(&dir, 0, Codec::Djz).unwrap();
        assert_eq!(spool.shard_count(), 0);
        spool.write_shard(0, &shard(&["a"])).unwrap();
        spool.write_shard(2, &rich_shard()).unwrap();
        assert_eq!(spool.shard_count(), 3);
        assert_eq!(spool.shard_len(0), Some(1));
        assert_eq!(spool.shard_len(1), None);
        assert_eq!(spool.shard_len(2), Some(2));
        spool.write_shard(1, &Dataset::new()).unwrap();
        assert_eq!(spool.total_samples(), 3);
    }

    #[test]
    fn fingerprint_sidecars_roundtrip_and_gate_on_completeness() {
        let dir = tmpdir("spool-fpr");
        let spool = ShardSpool::create(&dir, 2, Codec::Djz).unwrap();
        spool.write_shard(0, &shard(&["a", "b"])).unwrap();
        spool.write_shard(1, &shard(&["c"])).unwrap();
        let sidecar = |samples: &[&[u64]]| {
            let mut fp = Fingerprints::new();
            samples.iter().for_each(|words| fp.push(words).unwrap());
            fp
        };
        let fp0 = sidecar(&[&[7], &[8, u64::MAX, 9]]);
        let fp1 = sidecar(&[&[]]);
        spool.write_fingerprints(0, &fp0).unwrap();
        // One sidecar missing → no flattened set.
        assert!(spool.read_all_fingerprints().unwrap().is_none());
        spool.write_fingerprints(1, &fp1).unwrap();
        assert_eq!(spool.read_fingerprints(0).unwrap(), Some(fp0.clone()));
        assert_eq!(spool.read_fingerprints(1).unwrap(), Some(fp1));
        let all = spool.read_all_fingerprints().unwrap().unwrap();
        assert_eq!(all, sidecar(&[&[7], &[8, u64::MAX, 9], &[]]));
        // Sample count mismatch with its shard disqualifies the whole set.
        spool.write_fingerprints(1, &Fingerprints::new()).unwrap();
        assert!(spool.read_all_fingerprints().unwrap().is_none());
        // A shard frame in a sidecar's place is refused by its magic.
        let path = dir.join("shard-00000.fpr");
        fs::write(&path, encode_shard_frame(&shard(&["a"]), Codec::None)).unwrap();
        let err = spool.read_fingerprints(0).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn a_spool_reads_whatever_format_a_slot_holds() {
        let dir = tmpdir("spool-columnar");
        let shards = [shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        let spool = ShardSpool::create_columnar(&dir, 3, Codec::Djz).unwrap();
        for (i, s) in shards.iter().enumerate() {
            spool.write_shard(i, s).unwrap();
        }
        for (i, s) in shards.iter().enumerate() {
            assert!(matches!(spool.read(i).unwrap(), Frame::Col(_)));
            assert_eq!(&spool.read_shard(i).unwrap(), s);
        }
        // A pre-encoded frame of the other format lands like any other
        // write, and reads back through the same call.
        let frame = encode_shard_frame(&shards[0], Codec::Djz);
        spool.write_frame_bytes(1, &frame, shards[0].len()).unwrap();
        assert!(matches!(spool.read(1).unwrap(), Frame::Row(_)));
        assert_eq!(spool.read_shard(1).unwrap(), shards[0]);
        assert_eq!(spool.shard_len(1), Some(3));
        // Byte reads keep a slot's format; row-frame reads convert the
        // columnar slots and copy the row one.
        assert_eq!(spool.read_frame_bytes(1, None).unwrap(), frame);
        assert_eq!(spool.read_row_frame_bytes(1, None).unwrap(), frame);
        assert_eq!(
            spool.read_row_frame_bytes(2, None).unwrap(),
            encode_shard_frame(&shards[2], Codec::Djz)
        );
    }

    #[test]
    fn frame_slab_matches_full_decode() {
        let ds = rich_shard();
        let slab = FrameSlab::from_frame_bytes(&encode_shard_frame(&ds, Codec::Djz)).unwrap();
        assert_eq!(slab.sample_count().unwrap(), ds.len());
        assert!(slab.payload_len() > 0);
        assert_eq!(slab.decode().unwrap(), ds);
        let texts = slab.texts_at("text").unwrap();
        let expected: Vec<&str> = ds.iter().map(|s| s.text()).collect();
        assert_eq!(
            texts.iter().map(|c| c.as_ref()).collect::<Vec<_>>(),
            expected
        );
        // A row slab is only ever built from a row frame.
        let columnar = encode_columnar_frame(&ds, Codec::Djz);
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
            let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
            prop_assert_eq!(back, ds);
        }
    }
}
