//! Row shard frames (`DJSF`) and the disk-backed [`ShardSpool`].
//!
//! A row frame is the [`crate::frame`] envelope around one codec-compressed
//! run of whole serialized samples (`compress(to_bytes(shard))`); the
//! payload reuses the self-describing [`Codec`] frame. It is the `frames`
//! output format, and nothing else: [`encode_shard_frame`] writes it,
//! [`FrameSlab`] reads it back.
//!
//! [`ShardSpool`] is a directory with one columnar (`DJSC`) frame file per
//! shard — the disk backing of the executor's spill path. Files are
//! written to a temporary name and atomically renamed, so a reader (or a
//! restarted run) never observes a partial frame, and every read goes
//! through the one checked [`ShardSpool::read`]. The spool removes its
//! directory on drop.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dj_core::{Dataset, DjError, Fingerprints, Result};

use crate::codec::{compress, decompress, Codec};
use crate::frame::{checked_copy, envelope, Frame, FINGERPRINT_MAGIC, SHARD_FRAME_MAGIC};
use crate::serialize::{from_bytes, le_u64, to_bytes};

/// Encode one shard into a self-contained row frame.
pub fn encode_shard_frame(shard: &Dataset, codec: Codec) -> Vec<u8> {
    envelope::seal(SHARD_FRAME_MAGIC, &compress(&to_bytes(shard), codec))
}

/// A row frame loaded but not decoded: its verified, decompressed payload.
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
    /// Samples stored per written slot (`None` until stored) — the shard
    /// layout metadata a keep mask over the stored samples is sized by
    /// (a frame may store samples such a mask drops). Grows on demand so
    /// streaming ingest can append slots before the total shard count is
    /// known.
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
            lens: Mutex::new(vec![None; slots]),
        })
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

    /// Encode `shard` into slot `idx` (atomic: temp file then rename).
    pub fn write_shard(&self, idx: usize, shard: &Dataset) -> Result<()> {
        self.write_frame_bytes(idx, &Frame::encode(shard, self.codec), shard.len())
    }

    /// Store a pre-encoded frame (a column splice, a frame copied out of a
    /// cache entry) into slot `idx` atomically,
    /// recording `samples` as the number of samples the frame stores.
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
    /// *every* slot is written and has a sidecar of `live[i]` samples (a
    /// partial set cannot seed a barrier). `live[i]` is how many of slot
    /// `i`'s stored samples are still part of the dataset: a sidecar holds
    /// the fingerprints of those only.
    pub fn read_all_fingerprints(&self, live: &[usize]) -> Result<Option<Fingerprints>> {
        if live.len() != self.shard_count() {
            return Ok(None);
        }
        let mut all = Fingerprints::with_capacity(live.iter().sum());
        for (i, &expected) in live.iter().enumerate() {
            if self.shard_len(i).is_none() {
                return Ok(None);
            }
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

    /// Load slot `idx`: checksum verified, nothing decoded. Non-destructive: spilled shards can be re-streamed.
    pub fn read(&self, idx: usize) -> Result<Frame> {
        Frame::parse(&self.slot_bytes(idx)?)
    }

    /// Slot `idx` decoded whole.
    pub fn read_shard(&self, idx: usize) -> Result<Dataset> {
        Ok(self.read(idx)?.decode(None, None)?.0)
    }

    /// Slot `idx` as frame bytes holding the samples `keep` keeps — how a
    /// spool is persisted as a cache entry.
    /// Without a mask that is a checked copy of the slot file; with one the
    /// frame is re-encoded from the kept entries' byte ranges. No value is
    /// decoded either way.
    pub fn read_frame_bytes(&self, idx: usize, keep: Option<&[bool]>) -> Result<Vec<u8>> {
        checked_copy(self.slot_bytes(idx)?, keep, self.codec)
    }

    /// Slot `idx`'s samples that `keep` keeps as a *row* frame — the
    /// `frames` output contract: the slot is decoded and re-encoded, the
    /// one conversion that contract requires.
    pub fn read_row_frame_bytes(&self, idx: usize, keep: Option<&[bool]>) -> Result<Vec<u8>> {
        let (kept, _) = self.read(idx)?.decode(None, keep)?;
        Ok(encode_shard_frame(&kept, self.codec))
    }

    /// Samples stored in slot `idx`, if it has been written.
    pub fn shard_len(&self, idx: usize) -> Option<usize> {
        dj_core::sync::lock(&self.lens).get(idx).copied().flatten()
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
            assert_eq!(spool.shard_len(2), Some(2));
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
        assert_eq!(spool.shard_len(1), Some(0));
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
        assert!(spool.read_all_fingerprints(&[2, 1]).unwrap().is_none());
        spool.write_fingerprints(1, &fp1).unwrap();
        assert_eq!(spool.read_fingerprints(0).unwrap(), Some(fp0.clone()));
        assert_eq!(spool.read_fingerprints(1).unwrap(), Some(fp1));
        let all = spool.read_all_fingerprints(&[2, 1]).unwrap().unwrap();
        assert_eq!(all, sidecar(&[&[7], &[8, u64::MAX, 9], &[]]));
        // A live count or slot count the sidecars do not describe
        // disqualifies the whole set.
        for live in [&[2, 0][..], &[1, 1], &[2]] {
            assert!(spool.read_all_fingerprints(live).unwrap().is_none());
        }
        spool.write_fingerprints(1, &Fingerprints::new()).unwrap();
        assert!(spool.read_all_fingerprints(&[2, 1]).unwrap().is_none());
        assert!(spool.read_all_fingerprints(&[2, 0]).unwrap().is_some());
        // A shard frame in a sidecar's place is refused by its magic.
        let path = dir.join("shard-00000.fpr");
        fs::write(&path, encode_shard_frame(&shard(&["a"]), Codec::None)).unwrap();
        let err = spool.read_fingerprints(0).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn a_spool_holds_columnar_frames_and_hands_out_row_frames_only_as_output() {
        let dir = tmpdir("spool-format");
        let shards = [shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        let spool = ShardSpool::create(&dir, 3, Codec::Djz).unwrap();
        for (i, s) in shards.iter().enumerate() {
            spool.write_shard(i, s).unwrap();
        }
        for (i, s) in shards.iter().enumerate() {
            let slot = fs::read(dir.join(format!("shard-{i:05}.djs"))).unwrap();
            assert_eq!(slot, Frame::encode(s, Codec::Djz));
            assert_eq!(&spool.read_shard(i).unwrap(), s);
            // Byte reads copy the slot; row-frame reads convert it, past a
            // mask too: what a fresh row encode of the kept samples gives.
            assert_eq!(spool.read_frame_bytes(i, None).unwrap(), slot);
            assert_eq!(
                spool.read_row_frame_bytes(i, None).unwrap(),
                encode_shard_frame(s, Codec::Djz)
            );
            let keep: Vec<bool> = (0..s.len()).map(|k| k % 2 == 1).collect();
            let mut kept = s.clone();
            kept.retain_mask(&keep);
            assert_eq!(
                spool.read_row_frame_bytes(i, Some(&keep)).unwrap(),
                encode_shard_frame(&kept, Codec::Djz)
            );
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
            spool.read_row_frame_bytes(1, None).map(drop).unwrap_err(),
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
            let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
            prop_assert_eq!(back, ds);
        }
    }
}
