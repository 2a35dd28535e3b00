//! Cache & checkpoint management (paper §4.1.1).
//!
//! One cache root serves every recipe and every input. An entry holds the
//! dataset after one stage and is named by its content identity,
//! `<root>/<key:016x>.djc`: the executor derives the key by folding FNV-1a
//! over the input's digest and the identity (name and params) of every op
//! up to the stage's last one. A re-run with an edited recipe therefore
//! finds exactly the entries of its longest unchanged prefix, and a
//! different input finds none. Two modes mirror the paper's space/time
//! trade-off:
//!
//! * **Cache mode** — every stage's output is kept, so a re-run with a
//!   modified recipe resumes from the longest shared prefix (small
//!   adjustments re-execute only the tail).
//! * **Checkpoint mode** — a run keeps only its most recent stage's output:
//!   each save removes the entry the run's previous stage saved or resumed
//!   from, once the new one is safely written (Appendix A.2's 3×S
//!   peak-space pipeline). Other runs' entries under the root are left
//!   alone.
//!
//! Every entry is a concatenation of sealed columnar frames (see
//! [`crate::frame`]) — one frame for a resident dataset, one per shard for a
//! sharded or spilled stage — so every byte of every entry is under a
//! checksum, a spilled stage is saved by copying its slot files, and a
//! resume can pull the entry back frame by frame ([`CachedEntry`]) without
//! ever holding more than one. An entry an earlier release saved as row
//! frames is refused by [`Frame::parse`] with a typed error: a cache miss.
//! So is any entry of the earlier `recipe-<fingerprint>/<index>-<stage>.djc`
//! layout, which no key names.

use std::fs;
use std::io::{BufReader, ErrorKind, Seek, Write};
use std::path::{Path, PathBuf};

use dj_core::{Dataset, Result};

use crate::codec::Codec;
use crate::frame::{envelope, Frame};

/// Cache retention policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Keep every stage's output (max storage, min re-execution).
    Cache,
    /// Keep only a run's latest stage output (min storage, more
    /// re-execution).
    Checkpoint,
}

/// Directory-backed cache of per-stage dataset snapshots, keyed by content
/// identity.
pub struct CacheManager {
    root: PathBuf,
    mode: CacheMode,
    codec: Codec,
}

impl CacheManager {
    /// Create a manager rooted at `dir`. The directory is created on
    /// demand; one root serves every recipe and input.
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> CacheManager {
        CacheManager {
            root: dir.into(),
            mode,
            codec: Codec::Djz,
        }
    }

    pub fn with_codec(mut self, codec: Codec) -> CacheManager {
        self.codec = codec;
        self
    }

    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The cache root directory (shared across recipes and inputs).
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.djc"))
    }

    /// The codec resident shards are encoded with on their way into an
    /// entry (frames copied out of a spool keep the codec they have).
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Persist a stage's output as entry `key` from its sealed shard
    /// frames, in shard order — freshly encoded resident shards, or a
    /// spool's slot files copied as they are
    /// (`ShardSpool::read_frame_bytes`): nothing is decoded, re-encoded or
    /// materialized on the way in.
    ///
    /// The entry appears atomically (temp file, then rename; a failing
    /// `frames` item aborts the save and leaves nothing behind). In
    /// checkpoint mode, entry `replaces` — the one this run's previous
    /// stage saved or resumed from — is removed *after* the new entry is
    /// safely written (so a crash can at worst leave one extra file, never
    /// zero).
    pub fn save_frames(
        &self,
        key: u64,
        replaces: Option<u64>,
        frames: impl IntoIterator<Item = Result<Vec<u8>>>,
    ) -> Result<PathBuf> {
        fs::create_dir_all(&self.root)?;
        let path = self.entry_path(key);
        let tmp = path.with_extension("tmp");
        let write_all = || -> Result<()> {
            let mut out = std::io::BufWriter::new(fs::File::create(&tmp)?);
            for frame in frames {
                out.write_all(&frame?)?;
            }
            out.flush()?;
            Ok(())
        };
        if let Err(e) = write_all() {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, &path)?;
        if let Some(old) = replaces.filter(|old| self.mode == CacheMode::Checkpoint && *old != key)
        {
            let _ = fs::remove_file(self.entry_path(old));
        }
        Ok(path)
    }

    /// The last of `keys` (a run's stage keys, in stage order) that has an
    /// entry: returns `(stage, entry)` for the longest usable prefix,
    /// enabling resume-after-change (§4.1.1). The entry is only opened —
    /// the caller pulls its frames, and decides per frame whether to decode
    /// it into memory or copy it into a spool.
    pub fn latest_match(&self, keys: &[u64]) -> Result<Option<(usize, CachedEntry)>> {
        for (stage, key) in keys.iter().enumerate().rev() {
            match fs::File::open(self.entry_path(*key)) {
                Ok(file) => {
                    let frames = BufReader::new(file);
                    return Ok(Some((stage, CachedEntry { frames })));
                }
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(None)
    }

    /// Total bytes used by the entries under the root, every recipe's.
    pub fn disk_usage(&self) -> Result<u64> {
        let mut total = 0;
        for path in self.entries()? {
            total += fs::metadata(&path)?.len();
        }
        Ok(total)
    }

    /// Number of entries under the root, every recipe's.
    pub fn entry_count(&self) -> Result<usize> {
        Ok(self.entries()?.len())
    }

    /// Every entry file under the root: `<16 hex digits>.djc`.
    fn entries(&self) -> Result<Vec<PathBuf>> {
        if !self.root.exists() {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let path = entry?.path();
            let stem = path
                .file_name()
                .and_then(|n| n.to_str()?.strip_suffix(".djc"));
            if stem.is_some_and(|s| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())) {
                out.push(path);
            }
        }
        Ok(out)
    }
}

/// An opened cache entry: its sealed shard frames, pulled one at a time.
pub struct CachedEntry {
    frames: BufReader<fs::File>,
}

impl CachedEntry {
    /// The next frame's sealed bytes, or `None` at the end of the entry.
    /// They are handed out as stored: [`Frame::parse`] is what verifies
    /// them, whether the caller goes on to decode the frame or to copy
    /// these bytes somewhere else.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        envelope::read_one(&mut self.frames)
    }

    /// Start over from the first frame.
    pub fn rewind(&mut self) -> Result<()> {
        self.frames.rewind()?;
        Ok(())
    }

    /// Decode the whole entry into one dataset (frames concatenate in
    /// order, mirroring `Dataset::from_shards`).
    pub fn into_dataset(mut self) -> Result<Dataset> {
        let mut out = Dataset::new();
        while let Some(sealed) = self.next_frame()? {
            out.extend(Frame::parse(&sealed)?.decode(None, None)?.0);
        }
        Ok(out)
    }
}

/// Best-effort removal of a whole cache root (test/bench hygiene).
pub fn remove_cache_root(root: &Path) {
    let _ = fs::remove_dir_all(root);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::Sample;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dj-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Save `dataset` as the one-frame entry `key`.
    fn save(cm: &CacheManager, key: u64, replaces: Option<u64>, dataset: &Dataset) -> PathBuf {
        let frame = Frame::encode(dataset, cm.codec());
        cm.save_frames(key, replaces, [Ok(frame)]).unwrap()
    }

    /// The dataset entry `key` holds, if the cache has it, read the way a
    /// resume reads it.
    fn load(cm: &CacheManager, key: u64) -> Result<Option<Dataset>> {
        match cm.latest_match(&[key])? {
            Some((_, entry)) => entry.into_dataset().map(Some),
            None => Ok(None),
        }
    }

    fn ds(n: usize) -> Dataset {
        Dataset::from_samples(
            (0..n)
                .map(|i| Sample::from_text(format!("document number {i} with body text")))
                .collect(),
        )
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        let d = ds(10);
        let path = save(&cm, 0xABCD, None, &d);
        assert_eq!(path, dir.join("000000000000abcd.djc"));
        assert_eq!(load(&cm, 0xABCD).unwrap().unwrap(), d);
        assert!(load(&cm, 0xABCE).unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn cache_mode_keeps_all_checkpoint_keeps_last() {
        let dir = tmpdir("modes");
        let cache = CacheManager::new(&dir, CacheMode::Cache);
        let mut prev = None;
        for key in 1..=4 {
            save(&cache, key, prev, &ds(5));
            prev = Some(key);
        }
        assert_eq!(cache.entry_count().unwrap(), 4);

        // A checkpointed run under the same root replaces only the entry
        // its own previous stage saved: the other run's four survive.
        let ckpt = CacheManager::new(&dir, CacheMode::Checkpoint);
        let mut prev = None;
        for key in 11..=14 {
            save(&ckpt, key, prev, &ds(5));
            prev = Some(key);
        }
        assert_eq!(ckpt.entry_count().unwrap(), 5);
        assert!(load(&ckpt, 14).unwrap().is_some());
        assert!(load(&ckpt, 13).unwrap().is_none());
        for key in 1..=4 {
            assert!(load(&ckpt, key).unwrap().is_some(), "entry {key}");
        }
        // Resuming from an entry and saving the next stage replaces the
        // entry resumed from.
        save(&ckpt, 15, Some(4), &ds(5));
        assert!(load(&ckpt, 4).unwrap().is_none());
        assert_eq!(ckpt.entry_count().unwrap(), 5);
        remove_cache_root(&dir);
    }

    #[test]
    fn latest_match_resumes_from_prefix() {
        let dir = tmpdir("resume");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        save(&cm, 10, None, &ds(10));
        save(&cm, 11, None, &ds(8));
        save(&cm, 12, None, &ds(6));
        // The recipe changed at stage 2: its key is another, and only the
        // prefix matches.
        let (stage, entry) = cm.latest_match(&[10, 11, 99]).unwrap().unwrap();
        assert_eq!(stage, 1);
        assert_eq!(entry.into_dataset().unwrap().len(), 8);
        assert!(cm.latest_match(&[98, 99]).unwrap().is_none());
        assert!(cm.latest_match(&[]).unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn an_entry_of_the_old_layout_is_a_miss() {
        let dir = tmpdir("old-layout");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        // What an earlier release saved for stage 0 of some recipe: sound
        // frames, under a name no key reaches.
        let old = dir.join("recipe-00000000000000ab");
        fs::create_dir_all(&old).unwrap();
        fs::write(old.join("0000-op.djc"), Frame::encode(&ds(3), Codec::Djz)).unwrap();
        fs::write(dir.join("0000-op.djc"), Frame::encode(&ds(3), Codec::Djz)).unwrap();
        for key in [0, 0xab] {
            assert!(load(&cm, key).unwrap().is_none());
        }
        assert_eq!(cm.entry_count().unwrap(), 0);
        assert_eq!(cm.disk_usage().unwrap(), 0);
        remove_cache_root(&dir);
    }

    #[test]
    fn disk_usage_counts_the_saved_entries() {
        let dir = tmpdir("usage");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        assert_eq!(cm.disk_usage().unwrap(), 0);
        let path = save(&cm, 1, None, &ds(50));
        let one = fs::metadata(&path).unwrap().len();
        assert_eq!(cm.disk_usage().unwrap(), one);
        save(&cm, 2, None, &ds(50));
        assert_eq!(cm.disk_usage().unwrap(), 2 * one);
        remove_cache_root(&dir);
    }

    #[test]
    fn an_entry_is_its_frames_in_order_whatever_their_codec() {
        let dir = tmpdir("frames");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        let full = ds(10);
        let shards: Vec<Dataset> = full.clone().into_shards(3);
        // Frames of two codecs side by side, as copied spool slots and
        // freshly encoded shards would leave them.
        let frames: Vec<Vec<u8>> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| match i % 2 {
                0 => Frame::encode(s, Codec::Djz),
                _ => Frame::encode(s, Codec::None),
            })
            .collect();
        let path = cm
            .save_frames(1, None, frames.iter().cloned().map(Ok))
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), frames.concat());
        assert_eq!(load(&cm, 1).unwrap().unwrap(), full);
        // Pulled lazily, the frames come back byte for byte, and again
        // after a rewind.
        let (stage, mut entry) = cm.latest_match(&[1]).unwrap().unwrap();
        assert_eq!(stage, 0);
        for _ in 0..2 {
            for frame in &frames {
                assert_eq!(entry.next_frame().unwrap().as_ref(), Some(frame));
            }
            assert!(entry.next_frame().unwrap().is_none());
            entry.rewind().unwrap();
        }
        assert_eq!(entry.into_dataset().unwrap(), full);
        // A one-frame entry is the same format.
        let path = save(&cm, 2, None, &full);
        assert_eq!(fs::read(&path).unwrap(), Frame::encode(&full, Codec::Djz));
        // A failing frame iterator aborts the save and leaves no entry.
        let err_iter = vec![
            Ok(frames[0].clone()),
            Err(dj_core::DjError::Storage("spill read failed".into())),
        ];
        assert!(cm.save_frames(3, None, err_iter).is_err());
        assert!(load(&cm, 3).unwrap().is_none());
        assert_eq!(cm.entry_count().unwrap(), 2);
        remove_cache_root(&dir);
    }

    #[test]
    fn a_damaged_or_foreign_entry_is_a_typed_error_never_data() {
        let dir = tmpdir("damaged");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        let path = save(&cm, 1, None, &ds(6));
        let good = fs::read(&path).unwrap();
        // One flipped bit anywhere — envelope or payload — of the
        // one-frame entry (the kind that used to carry no checksum).
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x04;
            fs::write(&path, &bad).unwrap();
            let err = load(&cm, 1).unwrap_err();
            assert!(matches!(err, dj_core::DjError::Storage(_)), "byte {pos}");
        }
        // An entry in the retired un-enveloped blob format is not read.
        fs::write(&path, crate::compress(&crate::to_bytes(&ds(6)), Codec::Djz)).unwrap();
        assert!(load(&cm, 1).is_err());
        // Nor is one of row frames, as earlier releases saved resident
        // stages: `into_dataset` gives a typed error naming the format.
        let row = crate::encode_shard_frame(&ds(6), Codec::Djz);
        fs::write(&path, [good.clone(), row].concat()).unwrap();
        let err = load(&cm, 1).unwrap_err();
        assert!(matches!(err, dj_core::DjError::Storage(_)), "{err:?}");
        assert!(err.to_string().contains("DJSF"), "{err}");
        remove_cache_root(&dir);
    }

    #[test]
    fn compression_reduces_cache_size() {
        let raw_dir = tmpdir("codec-raw");
        let packed_dir = tmpdir("codec-packed");
        let raw = CacheManager::new(&raw_dir, CacheMode::Cache).with_codec(Codec::None);
        let packed = CacheManager::new(&packed_dir, CacheMode::Cache).with_codec(Codec::Djz);
        // Repetitive dataset → compressible.
        let d = Dataset::from_texts((0..100).map(|_| "repeat repeat repeat repeat".to_string()));
        save(&raw, 1, None, &d);
        save(&packed, 1, None, &d);
        assert!(packed.disk_usage().unwrap() < raw.disk_usage().unwrap() / 2);
        // And still loads correctly.
        assert_eq!(load(&packed, 1).unwrap().unwrap(), d);
        remove_cache_root(&raw_dir);
        remove_cache_root(&packed_dir);
    }
}
