//! Cache & checkpoint management (paper §4.1.1).
//!
//! One cache root serves every recipe and every input. An entry holds the
//! dataset after one stage and is named by its content identity,
//! `<root>/<key:016x>/`: the executor derives the key by folding FNV-1a
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
//!   from, once the new one is sealed (Appendix A.2's 3×S peak-space
//!   pipeline). Other runs' entries under the root are left alone.
//!
//! An entry is a sealed [`ShardSpool`]: slot files plus a [`seal_record`]
//! written last, renamed to `<key>/` in one step, so a spilled stage's
//! spool (which lives under the root) becomes the entry without a copy,
//! and a resume reads the entry in place. A `<key>.tmp/` (a killed save)
//! and an earlier release's `<key>.djc` file are misses.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dj_core::{DjError, Result};

use crate::frame::envelope;
use crate::pool::BufferPool;
use crate::serialize::le_u64;
use crate::shard_stream::ShardSpool;

/// Magic of an entry's seal record.
pub const ENTRY_SEAL_MAGIC: &[u8; 4] = b"DJES";

/// The seal record's file name inside an entry directory.
pub const SEAL_FILE: &str = "entry.seal";

/// A seal record, sealed under [`ENTRY_SEAL_MAGIC`]: the slot count, then
/// per slot its file's byte length and the samples its frame stores, each
/// a `u64` LE.
pub fn seal_record(slots: &[(u64, u64)]) -> Vec<u8> {
    let words = slots.iter().flat_map(|(bytes, samples)| [*bytes, *samples]);
    let payload: Vec<u8> = std::iter::once(slots.len() as u64)
        .chain(words)
        .flat_map(u64::to_le_bytes)
        .collect();
    envelope::seal(ENTRY_SEAL_MAGIC, &payload)
}

/// Each slot's (byte length, stored samples) out of a seal record. The
/// slot count must account for the payload exactly, so nothing is
/// allocated on its word.
pub fn open_seal_record(sealed: &[u8]) -> Result<Vec<(u64, u64)>> {
    let (magic, payload) = envelope::open_one(sealed)?;
    let count = payload.get(..8).map_or(u64::MAX, le_u64);
    let slots = payload.get(8..).unwrap_or_default();
    if &magic != ENTRY_SEAL_MAGIC || count.checked_mul(16) != Some(slots.len() as u64) {
        return Err(DjError::Storage("not a cache entry seal record".into()));
    }
    let slot = |s: &[u8]| (le_u64(&s[..8]), le_u64(&s[8..]));
    Ok(slots.chunks_exact(16).map(slot).collect())
}

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
}

impl CacheManager {
    /// Create a manager rooted at `dir`. The directory is created on
    /// demand; one root serves every recipe and input.
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> CacheManager {
        CacheManager {
            root: dir.into(),
            mode,
        }
    }

    /// The cache root directory (shared across recipes and inputs).
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_dir(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}"))
    }

    /// An empty spool at `<key>.tmp/` (debris cleared) in `pool`'s buffers,
    /// for data that is no spool of its own on its way into entry `key`.
    pub fn new_entry(&self, key: u64, pool: &BufferPool) -> Result<ShardSpool> {
        let tmp = self.entry_dir(key).with_extension("tmp");
        let _ = fs::remove_dir_all(&tmp);
        ShardSpool::create_pooled(tmp, 0, pool.clone())
    }

    /// Seal `spool` (unsealed, under the root) as entry `key`: its seal
    /// record, then a rename over any damaged `<key>/` or `<key>.tmp/`.
    /// Checkpoint mode then removes entry `replaces`, the run's previous
    /// one (a crash leaves one extra entry, never zero).
    pub fn seal(&self, spool: &mut ShardSpool, key: u64, replaces: Option<u64>) -> Result<()> {
        if spool.sealed {
            let dir = &spool.dir;
            return Err(DjError::Storage(format!("{dir:?} is already an entry")));
        }
        // A slot never written has no file: its metadata is an error.
        let lens = dj_core::sync::lock(&spool.lens).clone();
        let mut slots = Vec::with_capacity(lens.len());
        for (idx, samples) in lens.into_iter().enumerate() {
            let bytes = fs::metadata(spool.slot_path(idx))?.len();
            slots.push((bytes, samples.unwrap_or(0) as u64));
        }
        fs::write(spool.dir.join(SEAL_FILE), seal_record(&slots))?;
        let dir = self.entry_dir(key);
        for stale in [dir.with_extension("tmp"), dir.clone()] {
            if stale != spool.dir {
                let _ = fs::remove_dir_all(stale);
            }
        }
        fs::rename(&spool.dir, &dir)?;
        (spool.dir, spool.sealed) = (dir, true);
        if let Some(old) = replaces.filter(|old| self.mode == CacheMode::Checkpoint && *old != key)
        {
            let _ = fs::remove_dir_all(self.entry_dir(old));
        }
        Ok(())
    }

    /// `(stage, entry)` for the last of `keys` (stage order) that has an
    /// entry, as a read-only spool in `pool`'s buffers (§4.1.1 resume). The
    /// directory must hold exactly the slots its seal names, each as long
    /// as recorded; reads hold each frame to its recorded sample count.
    pub fn latest_match(
        &self,
        keys: &[u64],
        pool: &BufferPool,
    ) -> Result<Option<(usize, ShardSpool)>> {
        for (stage, key) in keys.iter().enumerate().rev() {
            let dir = self.entry_dir(*key);
            let slots = match fs::read(dir.join(SEAL_FILE)) {
                Err(e) if e.kind() == ErrorKind::NotFound => continue,
                seal => open_seal_record(&seal?)?,
            };
            let lens = slots.iter().map(|(_, samples)| Some(*samples as usize));
            let entry = ShardSpool {
                dir,
                pool: pool.clone(),
                lens: Mutex::new(lens.collect()),
                sealed: true,
            };
            let files = fs::read_dir(&entry.dir)?.count();
            let as_sealed = |(idx, (bytes, _)): (usize, &(u64, u64))| {
                fs::metadata(entry.slot_path(idx)).is_ok_and(|m| m.len() == *bytes)
            };
            if files != slots.len() + 1 || !slots.iter().enumerate().all(as_sealed) {
                return Err(DjError::Storage(format!(
                    "cache entry {:?} holds other files than its seal names",
                    entry.dir
                )));
            }
            return Ok(Some((stage, entry)));
        }
        Ok(None)
    }

    /// Total bytes used by the entries under the root, every recipe's.
    pub fn disk_usage(&self) -> Result<u64> {
        let mut total = 0;
        for dir in self.entries()? {
            for file in fs::read_dir(dir)? {
                total += file?.metadata()?.len();
            }
        }
        Ok(total)
    }

    /// Number of entries under the root, every recipe's.
    pub fn entry_count(&self) -> Result<usize> {
        Ok(self.entries()?.len())
    }

    /// Every entry directory under the root: `<16 hex digits>/`.
    fn entries(&self) -> Result<Vec<PathBuf>> {
        let key = |n: &str| n.len() == 16 && n.bytes().all(|b| b.is_ascii_hexdigit());
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root).into_iter().flatten() {
            let path = entry?.path();
            if path.file_name().and_then(|n| n.to_str()).is_some_and(key) {
                out.push(path);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::frame::Frame;
    use dj_core::{Dataset, Sample};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dj-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Save `dataset` as the one-slot entry `key`.
    fn save(cm: &CacheManager, key: u64, replaces: Option<u64>, dataset: &Dataset) -> PathBuf {
        let mut entry = cm.new_entry(key, &BufferPool::default()).unwrap();
        entry.write_shard(0, dataset).unwrap();
        cm.seal(&mut entry, key, replaces).unwrap();
        entry.dir().to_path_buf()
    }

    /// The dataset entry `key` holds, if the cache has it, read the way a
    /// resume reads it: every slot, checked.
    fn load(cm: &CacheManager, key: u64) -> Result<Option<Dataset>> {
        let Some((_, entry)) = cm.latest_match(&[key], &BufferPool::default())? else {
            return Ok(None);
        };
        let mut out = Dataset::new();
        for i in 0..entry.shard_count() {
            out.extend(entry.read_shard(i)?);
        }
        Ok(Some(out))
    }

    fn ds(n: usize) -> Dataset {
        Dataset::from_samples(
            (0..n)
                .map(|i| Sample::from_text(format!("document number {i} with body text")))
                .collect(),
        )
    }

    /// The files of an entry directory, by name, with their bytes.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read(&path).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        let d = ds(10);
        let path = save(&cm, 0xABCD, None, &d);
        assert_eq!(path, dir.join("000000000000abcd"));
        assert_eq!(load(&cm, 0xABCD).unwrap().unwrap(), d);
        assert!(load(&cm, 0xABCE).unwrap().is_none());
        // The entry is its slot and its seal, nothing else.
        let names: Vec<String> = files(&path).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, [SEAL_FILE, "shard-00000.djs"]);
        let _ = fs::remove_dir_all(&dir);
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
        let _ = fs::remove_dir_all(&dir);
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
        let pool = BufferPool::default();
        let (stage, entry) = cm.latest_match(&[10, 11, 99], &pool).unwrap().unwrap();
        assert_eq!(stage, 1);
        assert_eq!(entry.read_shard(0).unwrap().len(), 8);
        assert!(cm.latest_match(&[98, 99], &pool).unwrap().is_none());
        assert!(cm.latest_match(&[], &pool).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_layouts_and_save_debris_are_misses_left_alone_until_their_key_saves() {
        let dir = tmpdir("old-layout");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        // What earlier releases saved: sound frames under names no key
        // reaches — a recipe directory of stage files, and a flat
        // `<key>.djc` of concatenated frames.
        let frames = [
            Frame::encode(&ds(3), Codec::Djz),
            Frame::encode(&ds(2), Codec::Djz),
        ];
        let old = dir.join("recipe-00000000000000ab");
        fs::create_dir_all(&old).unwrap();
        fs::write(old.join("0000-op.djc"), &frames[0]).unwrap();
        let flat = dir.join(format!("{:016x}.djc", 7));
        fs::write(&flat, frames.concat()).unwrap();
        // A save killed before its seal: slots under `<key>.tmp/`.
        let debris = cm.new_entry(7, &BufferPool::default()).unwrap();
        debris.write_shard(0, &ds(4)).unwrap();
        std::mem::forget(debris);
        let tmp = dir.join(format!("{:016x}.tmp", 7));
        assert!(tmp.join("shard-00000.djs").is_file());
        for key in [0, 7, 0xab] {
            assert!(load(&cm, key).unwrap().is_none());
        }
        assert_eq!(cm.entry_count().unwrap(), 0);
        assert_eq!(cm.disk_usage().unwrap(), 0);
        // The next save of that key clears the debris, and leaves the flat
        // file as it was.
        save(&cm, 7, None, &ds(5));
        assert!(!tmp.exists());
        assert_eq!(load(&cm, 7).unwrap().unwrap(), ds(5));
        assert_eq!(fs::read(&flat).unwrap(), frames.concat());
        assert_eq!(cm.entry_count().unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_usage_counts_the_saved_entries() {
        let dir = tmpdir("usage");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        assert_eq!(cm.disk_usage().unwrap(), 0);
        let path = save(&cm, 1, None, &ds(50));
        let one: u64 = files(&path).iter().map(|(_, b)| b.len() as u64).sum();
        assert_eq!(cm.disk_usage().unwrap(), one);
        save(&cm, 2, None, &ds(50));
        assert_eq!(cm.disk_usage().unwrap(), 2 * one);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_spool_sealed_as_an_entry_is_its_slot_files_renamed() {
        let dir = tmpdir("sealed-spool");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        let full = ds(10);
        let shards: Vec<Dataset> = full.clone().into_shards(3);
        // Frames of two codecs side by side, as spliced slots and freshly
        // encoded shards would leave them.
        let frames: Vec<Vec<u8>> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| match i % 2 {
                0 => Frame::encode(s, Codec::Djz),
                _ => Frame::encode(s, Codec::None),
            })
            .collect();
        let mut spool = ShardSpool::create(dir.join("spill"), 0).unwrap();
        for (i, (frame, shard)) in frames.iter().zip(&shards).enumerate() {
            spool.write_frame_bytes(i, frame, shard.len()).unwrap();
        }
        let before = fs::metadata(spool.slot_path(1)).unwrap();
        cm.seal(&mut spool, 1, None).unwrap();
        assert!(spool.is_sealed() && !dir.join("spill").exists());
        assert_eq!(spool.dir(), dir.join(format!("{:016x}", 1)));
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            let after = fs::metadata(spool.slot_path(1)).unwrap();
            assert_eq!(after.ino(), before.ino(), "a sealed slot was copied");
        }
        let _ = before;
        // Slots in order, then the seal: lengths and stored samples.
        let mut want: Vec<(String, Vec<u8>)> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| (format!("shard-{i:05}.djs"), f.clone()))
            .collect();
        let records: Vec<(u64, u64)> = frames
            .iter()
            .zip(&shards)
            .map(|(f, s)| (f.len() as u64, s.len() as u64))
            .collect();
        want.insert(0, (SEAL_FILE.to_string(), seal_record(&records)));
        assert_eq!(files(spool.dir()), want);
        // The sealed spool still reads, refuses writes and a second seal,
        // and leaves its directory behind when it drops.
        assert_eq!(spool.read_shard(2).unwrap(), shards[2]);
        assert!(spool.write_shard(0, &ds(1)).is_err());
        assert!(cm.seal(&mut spool, 2, None).is_err());
        drop(spool);
        assert_eq!(load(&cm, 1).unwrap().unwrap(), full);
        // A spool with a slot never written seals nothing.
        let mut gappy = ShardSpool::create(dir.join("gappy"), 2).unwrap();
        gappy.write_shard(1, &ds(2)).unwrap();
        assert!(cm.seal(&mut gappy, 3, None).is_err());
        drop(gappy);
        assert!(load(&cm, 3).unwrap().is_none());
        assert_eq!(cm.entry_count().unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_or_foreign_entry_is_a_typed_error_never_data() {
        let dir = tmpdir("damaged");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        let data = ds(6);
        let path = save(&cm, 1, None, &data);
        let seal = fs::read(path.join(SEAL_FILE)).unwrap();
        let slot = path.join("shard-00000.djs");
        let good = fs::read(&slot).unwrap();
        let refused = |what: &str| {
            let err = load(&cm, 1).unwrap_err();
            assert!(matches!(err, DjError::Storage(_)), "{what}: {err:?}");
            err
        };
        // One flipped bit anywhere in the seal record or the slot.
        for (file, bytes) in [(path.join(SEAL_FILE), &seal), (slot.clone(), &good)] {
            for pos in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x04;
                fs::write(&file, &bad).unwrap();
                refused(&format!("{file:?} byte {pos}"));
            }
            fs::write(&file, bytes).unwrap();
        }
        assert_eq!(load(&cm, 1).unwrap().unwrap(), data);
        // A slot that disagrees with a sound seal: one of another length,
        // and one storing another number of samples than recorded.
        fs::write(&slot, Frame::encode(&ds(5), Codec::Djz)).unwrap();
        refused("another length");
        fs::write(&slot, &good).unwrap();
        fs::write(path.join(SEAL_FILE), seal_record(&[(good.len() as u64, 5)])).unwrap();
        let err = refused("another sample count");
        assert!(err.to_string().contains("samples"), "{err}");
        fs::write(path.join(SEAL_FILE), &seal).unwrap();
        // A row frame where a slot belongs: refused by its magic.
        fs::write(&slot, crate::encode_shard_frame(&data, Codec::Djz)).unwrap();
        refused("a row frame");
        // A missing slot, and a file the seal does not name.
        fs::write(&slot, &good).unwrap();
        fs::rename(&slot, path.join("shard-00001.djs")).unwrap();
        refused("slot renamed away");
        fs::rename(path.join("shard-00001.djs"), &slot).unwrap();
        fs::write(path.join("shard-00001.djs"), &good).unwrap();
        refused("extra slot");
        fs::remove_file(path.join("shard-00001.djs")).unwrap();
        // Without its seal the directory is no entry at all.
        fs::remove_file(path.join(SEAL_FILE)).unwrap();
        assert!(load(&cm, 1).unwrap().is_none(), "no seal");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_seal_record_accounts_for_every_byte() {
        let slots = [(120, 7), (0, 0), (u64::MAX, 3)];
        let sealed = seal_record(&slots);
        assert_eq!(open_seal_record(&sealed).unwrap(), slots);
        assert_eq!(open_seal_record(&seal_record(&[])).unwrap(), []);
        let payload = &sealed[envelope::HEADER_LEN..];
        // A count that does not match the slots that follow, a payload cut
        // at any byte, or another magic is refused.
        for count in [0, 2, 4, u64::MAX, 1 << 60] {
            let mut bad = payload.to_vec();
            bad[..8].copy_from_slice(&count.to_le_bytes());
            assert!(open_seal_record(&envelope::seal(ENTRY_SEAL_MAGIC, &bad)).is_err());
        }
        for cut in 0..payload.len() {
            let bad = envelope::seal(ENTRY_SEAL_MAGIC, &payload[..cut]);
            assert!(open_seal_record(&bad).is_err(), "cut at {cut}");
        }
        let frame = envelope::seal(crate::COLUMNAR_FRAME_MAGIC, payload);
        assert!(open_seal_record(&frame).is_err());
    }

    /// An entry compresses the columns it stores as tagged values: the
    /// demoted ones, here a column with a NaN in it (every other column is
    /// JSON text, stored uncompressed). Its slot is held to the same
    /// samples encoded with no compression at all.
    #[test]
    fn compression_reduces_cache_size() {
        let dir = tmpdir("codec");
        let cm = CacheManager::new(&dir, CacheMode::Cache);
        // Repetitive dataset → compressible.
        let mut d =
            Dataset::from_texts((0..100).map(|_| "repeat repeat repeat repeat".to_string()));
        for s in d.samples_mut() {
            s.set_meta("nan", f64::NAN);
            s.set_meta("log", "repeat repeat repeat repeat ".repeat(10));
        }
        let path = save(&cm, 1, None, &d);
        let slot = fs::read(path.join("shard-00000.djs")).unwrap();
        let raw = Frame::encode(&d, Codec::None);
        assert!(
            slot.len() < raw.len() / 2,
            "{} of {}",
            slot.len(),
            raw.len()
        );
        // And still loads correctly (a NaN equals no float, so by JSONL).
        let loaded = load(&cm, 1).unwrap().unwrap();
        assert_eq!(crate::to_jsonl(&loaded), crate::to_jsonl(&d));
        let _ = fs::remove_dir_all(&dir);
    }
}
