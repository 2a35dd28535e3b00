//! Cache & checkpoint management (paper §4.1.1).
//!
//! The executor stores the dataset after each OP under a directory keyed by
//! the recipe fingerprint. Two modes mirror the paper's space/time
//! trade-off:
//!
//! * **Cache mode** — every OP's output is kept, so a re-run with a
//!   modified recipe resumes from the longest shared prefix of the OP list
//!   (small adjustments re-execute only the tail).
//! * **Checkpoint mode** — only the most recent OP's output is kept; older
//!   entries are cleaned up after each successful save (Appendix A.2's
//!   3×S peak-space pipeline).
//!
//! Every entry is a concatenation of sealed columnar frames (see
//! [`crate::frame`]) — one frame for a resident dataset, one per shard for a
//! sharded or spilled stage — so every byte of every entry is under a
//! checksum, a spilled stage is saved by copying its slot files, and a
//! resume can pull the entry back frame by frame ([`CachedEntry`]) without
//! ever holding more than one. An entry an earlier release saved as row
//! frames is refused by [`Frame::parse`] with a typed error: a cache miss.

use std::fs;
use std::io::{BufReader, Seek, Write};
use std::path::{Path, PathBuf};

use dj_core::{Dataset, Result};
use dj_hash::fnv1a;

use crate::codec::Codec;
use crate::frame::{envelope, Frame};

/// Cache retention policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Keep every OP's output (max storage, min re-execution).
    Cache,
    /// Keep only the latest OP's output (min storage, more re-execution).
    Checkpoint,
    /// Keep nothing (baseline / benchmark mode).
    Disabled,
}

/// Directory-backed cache of per-OP dataset snapshots.
pub struct CacheManager {
    root: PathBuf,
    mode: CacheMode,
    codec: Codec,
    recipe_fingerprint: u64,
}

impl CacheManager {
    /// Create a manager rooted at `dir` for a recipe with the given
    /// fingerprint. The directory is created on demand.
    pub fn new(dir: impl Into<PathBuf>, recipe_fingerprint: u64, mode: CacheMode) -> CacheManager {
        CacheManager {
            root: dir.into(),
            mode,
            codec: Codec::Djz,
            recipe_fingerprint,
        }
    }

    pub fn with_codec(mut self, codec: Codec) -> CacheManager {
        self.codec = codec;
        self
    }

    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The cache root directory (shared across recipes). The adaptive
    /// planner parks its stats sidecar here so measurements survive across
    /// runs that share a cache.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Default path of the planner-stats sidecar under this cache root.
    /// Sidecar knowledge is recipe-independent (ops keep their names across
    /// recipes), so it lives at the root, not in a `recipe-*` subdir.
    pub fn stats_sidecar_path(&self) -> PathBuf {
        self.root.join(crate::sidecar::STATS_SIDECAR_FILE)
    }

    fn dir(&self) -> PathBuf {
        self.root
            .join(format!("recipe-{:016x}", self.recipe_fingerprint))
    }

    fn entry_path(&self, op_index: usize, op_name: &str) -> PathBuf {
        self.dir()
            .join(format!("{op_index:04}-{}.djc", safe_name(op_name)))
    }

    /// The codec resident shards are encoded with on their way into an
    /// entry (frames copied out of a spool keep the codec they have).
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Persist the dataset state after OP `op_index` as a one-frame entry.
    pub fn save(&self, op_index: usize, op_name: &str, dataset: &Dataset) -> Result<PathBuf> {
        let frame = Frame::encode(dataset, self.codec);
        self.save_frames(op_index, op_name, std::iter::once(Ok(frame)))
    }

    /// Persist the state after OP `op_index` from its sealed shard frames,
    /// in shard order — freshly encoded resident shards, or a spool's slot
    /// files copied as they are (`ShardSpool::read_frame_bytes`): nothing
    /// is decoded, re-encoded or materialized on the way in.
    ///
    /// The entry appears atomically (temp file, then rename; a failing
    /// `frames` item aborts the save and leaves nothing behind). In
    /// checkpoint mode, earlier entries are removed *after* the new entry
    /// is safely written (so a crash can at worst leave one extra file,
    /// never zero).
    pub fn save_frames(
        &self,
        op_index: usize,
        op_name: &str,
        frames: impl IntoIterator<Item = Result<Vec<u8>>>,
    ) -> Result<PathBuf> {
        if self.mode == CacheMode::Disabled {
            return Ok(PathBuf::new());
        }
        let dir = self.dir();
        fs::create_dir_all(&dir)?;
        let path = self.entry_path(op_index, op_name);
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
        if self.mode == CacheMode::Checkpoint {
            for entry in list_entries(&dir)? {
                if entry.op_index != op_index {
                    let _ = fs::remove_file(&entry.path);
                }
            }
        }
        Ok(path)
    }

    /// Load the dataset state after OP `op_index`, if cached.
    pub fn load(&self, op_index: usize, op_name: &str) -> Result<Option<Dataset>> {
        let path = self.entry_path(op_index, op_name);
        if !path.exists() {
            return Ok(None);
        }
        CachedEntry::open(&path)?.into_dataset().map(Some)
    }

    /// The most recent cached state whose `(index, name)` matches a prefix
    /// of `ops`: returns `(op_index, entry)` for the longest usable entry,
    /// enabling resume-after-change (§4.1.1). The entry is only opened —
    /// the caller pulls its frames, and decides per frame whether to decode
    /// it into memory or copy it into a spool.
    pub fn latest_match(&self, ops: &[(usize, String)]) -> Result<Option<(usize, CachedEntry)>> {
        let dir = self.dir();
        if !dir.exists() {
            return Ok(None);
        }
        let entries = list_entries(&dir)?;
        for (idx, name) in ops.iter().rev() {
            if let Some(e) = entries
                .iter()
                .find(|e| e.op_index == *idx && e.op_name == safe_name(name))
            {
                return Ok(Some((*idx, CachedEntry::open(&e.path)?)));
            }
        }
        Ok(None)
    }

    /// Total bytes used by this recipe's cache entries.
    pub fn disk_usage(&self) -> Result<u64> {
        let dir = self.dir();
        if !dir.exists() {
            return Ok(0);
        }
        let mut total = 0;
        for e in list_entries(&dir)? {
            total += fs::metadata(&e.path)?.len();
        }
        Ok(total)
    }

    /// Number of stored entries.
    pub fn entry_count(&self) -> Result<usize> {
        let dir = self.dir();
        if !dir.exists() {
            return Ok(0);
        }
        Ok(list_entries(&dir)?.len())
    }

    /// Remove every entry for this recipe.
    pub fn clear(&self) -> Result<()> {
        let dir = self.dir();
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        Ok(())
    }
}

/// An opened cache entry: its sealed shard frames, pulled one at a time.
pub struct CachedEntry {
    frames: BufReader<fs::File>,
}

impl CachedEntry {
    fn open(path: &Path) -> Result<CachedEntry> {
        Ok(CachedEntry {
            frames: BufReader::new(fs::File::open(path)?),
        })
    }

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

struct Entry {
    op_index: usize,
    op_name: String,
    path: PathBuf,
}

/// Encode an op/stage name into a filesystem-safe filename component.
///
/// Stage-keyed entries concatenate every member step name, which can
/// exceed the 255-byte filename limit; long names keep a readable prefix
/// and append a stable hash of the full name.
fn safe_name(name: &str) -> String {
    const MAX: usize = 96;
    let clean: String = name
        .chars()
        .map(|c| {
            if c == '/' || c == '\\' || c == '\0' {
                '_'
            } else {
                c
            }
        })
        .collect();
    if clean.len() <= MAX {
        return clean;
    }
    let h = fnv1a(clean.as_bytes());
    let mut prefix_end = MAX - 17; // room for `~` + 16 hex digits
    while !clean.is_char_boundary(prefix_end) {
        prefix_end -= 1;
    }
    format!("{}~{h:016x}", &clean[..prefix_end])
}

fn list_entries(dir: &Path) -> Result<Vec<Entry>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".djc") else {
            continue;
        };
        let Some((idx, op_name)) = stem.split_once('-') else {
            continue;
        };
        let Ok(op_index) = idx.parse::<usize>() else {
            continue;
        };
        out.push(Entry {
            op_index,
            op_name: op_name.to_string(),
            path,
        });
    }
    out.sort_by_key(|e| e.op_index);
    Ok(out)
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
        let cm = CacheManager::new(&dir, 0xABCD, CacheMode::Cache);
        let d = ds(10);
        cm.save(0, "op_a", &d).unwrap();
        let loaded = cm.load(0, "op_a").unwrap().unwrap();
        assert_eq!(loaded, d);
        assert!(cm.load(1, "op_b").unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn cache_mode_keeps_all_checkpoint_keeps_last() {
        let dir = tmpdir("modes");
        let cache = CacheManager::new(&dir, 1, CacheMode::Cache);
        for i in 0..4 {
            cache.save(i, "op", &ds(5)).unwrap();
        }
        assert_eq!(cache.entry_count().unwrap(), 4);

        let ckpt = CacheManager::new(&dir, 2, CacheMode::Checkpoint);
        for i in 0..4 {
            ckpt.save(i, "op", &ds(5)).unwrap();
        }
        assert_eq!(ckpt.entry_count().unwrap(), 1);
        assert!(ckpt.load(3, "op").unwrap().is_some());
        assert!(ckpt.load(2, "op").unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn disabled_mode_writes_nothing() {
        let dir = tmpdir("disabled");
        let cm = CacheManager::new(&dir, 3, CacheMode::Disabled);
        cm.save(0, "op", &ds(5)).unwrap();
        assert_eq!(cm.entry_count().unwrap(), 0);
        remove_cache_root(&dir);
    }

    #[test]
    fn latest_match_resumes_from_prefix() {
        let dir = tmpdir("resume");
        let cm = CacheManager::new(&dir, 4, CacheMode::Cache);
        cm.save(0, "clean", &ds(10)).unwrap();
        cm.save(1, "filter", &ds(8)).unwrap();
        cm.save(2, "dedup", &ds(6)).unwrap();
        // Recipe changed after index 1: only the prefix matches.
        let ops = vec![
            (0usize, "clean".to_string()),
            (1, "filter".to_string()),
            (2, "different_op".to_string()),
        ];
        let (idx, entry) = cm.latest_match(&ops).unwrap().unwrap();
        assert_eq!(idx, 1);
        assert_eq!(entry.into_dataset().unwrap().len(), 8);
        remove_cache_root(&dir);
    }

    #[test]
    fn different_fingerprints_are_isolated() {
        let dir = tmpdir("fingerprints");
        let a = CacheManager::new(&dir, 10, CacheMode::Cache);
        let b = CacheManager::new(&dir, 11, CacheMode::Cache);
        a.save(0, "op", &ds(3)).unwrap();
        assert!(b.load(0, "op").unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn disk_usage_and_clear() {
        let dir = tmpdir("usage");
        let cm = CacheManager::new(&dir, 12, CacheMode::Cache);
        assert_eq!(cm.disk_usage().unwrap(), 0);
        cm.save(0, "op", &ds(50)).unwrap();
        assert!(cm.disk_usage().unwrap() > 0);
        cm.clear().unwrap();
        assert_eq!(cm.entry_count().unwrap(), 0);
        remove_cache_root(&dir);
    }

    #[test]
    fn long_stage_names_are_hashed_into_safe_filenames() {
        // Stage-keyed entries join every member step name; a 20-op stage
        // easily exceeds the 255-byte filename limit.
        let long_a: String = (0..24)
            .map(|i| format!("some_rather_long_operator_name_{i}"))
            .collect::<Vec<_>>()
            .join("+");
        let long_b = format!("{long_a}+one_more_op");
        assert!(safe_name(&long_a).len() <= 96);
        assert_ne!(safe_name(&long_a), safe_name(&long_b));
        assert_eq!(safe_name("short_op"), "short_op");

        let dir = tmpdir("longnames");
        let cm = CacheManager::new(&dir, 21, CacheMode::Cache);
        cm.save(0, &long_a, &ds(4)).unwrap();
        assert_eq!(cm.load(0, &long_a).unwrap().unwrap(), ds(4));
        // latest_match resolves through the same encoding.
        let (idx, entry) = cm
            .latest_match(&[(0usize, long_a.clone())])
            .unwrap()
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(entry.into_dataset().unwrap(), ds(4));
        // A different long name does not collide.
        assert!(cm.load(0, &long_b).unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn an_entry_is_its_frames_in_order_whatever_their_codec() {
        let dir = tmpdir("frames");
        let cm = CacheManager::new(&dir, 31, CacheMode::Cache);
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
            .save_frames(0, "stage_a", frames.iter().cloned().map(Ok))
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), frames.concat());
        assert_eq!(cm.load(0, "stage_a").unwrap().unwrap(), full);
        // Pulled lazily, the frames come back byte for byte, and again
        // after a rewind.
        let (idx, mut entry) = cm
            .latest_match(&[(0usize, "stage_a".to_string())])
            .unwrap()
            .unwrap();
        assert_eq!(idx, 0);
        for _ in 0..2 {
            for frame in &frames {
                assert_eq!(entry.next_frame().unwrap().as_ref(), Some(frame));
            }
            assert!(entry.next_frame().unwrap().is_none());
            entry.rewind().unwrap();
        }
        assert_eq!(entry.into_dataset().unwrap(), full);
        // `save` is the one-frame case of the same format.
        let path = cm.save(1, "whole", &full).unwrap();
        assert_eq!(fs::read(&path).unwrap(), Frame::encode(&full, Codec::Djz));
        // A failing frame iterator aborts the save and leaves no entry.
        let err_iter = vec![
            Ok(frames[0].clone()),
            Err(dj_core::DjError::Storage("spill read failed".into())),
        ];
        assert!(cm.save_frames(2, "stage_b", err_iter).is_err());
        assert!(cm.load(2, "stage_b").unwrap().is_none());
        assert_eq!(cm.entry_count().unwrap(), 2);
        remove_cache_root(&dir);
    }

    #[test]
    fn a_damaged_or_foreign_entry_is_a_typed_error_never_data() {
        let dir = tmpdir("damaged");
        let cm = CacheManager::new(&dir, 32, CacheMode::Cache);
        let path = cm.save(0, "op", &ds(6)).unwrap();
        let good = fs::read(&path).unwrap();
        // One flipped bit anywhere — envelope or payload — of the
        // one-frame entry (the kind that used to carry no checksum).
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x04;
            fs::write(&path, &bad).unwrap();
            let err = cm.load(0, "op").unwrap_err();
            assert!(matches!(err, dj_core::DjError::Storage(_)), "byte {pos}");
        }
        // An entry in the retired un-enveloped blob format is not read.
        fs::write(&path, crate::compress(&crate::to_bytes(&ds(6)), Codec::Djz)).unwrap();
        assert!(cm.load(0, "op").is_err());
        // Nor is one of row frames, as earlier releases saved resident
        // stages: every public reader gives a typed error.
        let row = crate::encode_shard_frame(&ds(6), Codec::Djz);
        fs::write(&path, [good.clone(), row].concat()).unwrap();
        for err in [
            cm.load(0, "op").unwrap_err(),
            cm.latest_match(&[(0, "op".to_string())])
                .unwrap()
                .unwrap()
                .1
                .into_dataset()
                .unwrap_err(),
        ] {
            assert!(matches!(err, dj_core::DjError::Storage(_)), "{err:?}");
            assert!(err.to_string().contains("DJSF"), "{err}");
        }
        remove_cache_root(&dir);
    }

    #[test]
    fn compression_reduces_cache_size() {
        let dir = tmpdir("codec");
        let raw = CacheManager::new(&dir, 13, CacheMode::Cache).with_codec(Codec::None);
        let packed = CacheManager::new(&dir, 14, CacheMode::Cache).with_codec(Codec::Djz);
        // Repetitive dataset → compressible.
        let d = Dataset::from_texts((0..100).map(|_| "repeat repeat repeat repeat".to_string()));
        raw.save(0, "op", &d).unwrap();
        packed.save(0, "op", &d).unwrap();
        assert!(packed.disk_usage().unwrap() < raw.disk_usage().unwrap() / 2);
        // And still loads correctly.
        assert_eq!(packed.load(0, "op").unwrap().unwrap(), d);
        remove_cache_root(&dir);
    }
}
