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
//! Entries are optionally compressed with a [`Codec`].

use std::fs;
use std::path::{Path, PathBuf};

use dj_core::{Dataset, Result};

use crate::codec::{compress, decompress, Codec};
use crate::columnar::COLUMNAR_FRAME_MAGIC;
use crate::serialize::{from_bytes, to_bytes};
use crate::shard_stream::{
    count_frames, read_shard_stream, ShardSpool, ShardStreamReader, ShardStreamWriter,
    SHARD_FRAME_MAGIC,
};

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

    /// Write cache entry `op_index`/`op_name` through `write`, atomically
    /// (temp file, then rename; a failed write leaves nothing behind). In
    /// checkpoint mode, earlier entries are removed *after* the new entry
    /// is safely written (so a crash can at worst leave one extra file,
    /// never zero).
    fn save_entry(
        &self,
        op_index: usize,
        op_name: &str,
        write: impl FnOnce(&mut std::io::BufWriter<fs::File>) -> Result<()>,
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
            write(&mut out)?;
            std::io::Write::flush(&mut out)?;
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

    /// Persist the dataset state after OP `op_index` as one compressed
    /// frame.
    pub fn save(&self, op_index: usize, op_name: &str, dataset: &Dataset) -> Result<PathBuf> {
        self.save_entry(op_index, op_name, |out| {
            let frame = compress(&to_bytes(dataset), self.codec);
            Ok(std::io::Write::write_all(out, &frame)?)
        })
    }

    /// Persist a stage that lives on disk as spilled shards without ever
    /// materializing it: shard frames are appended to the entry as a
    /// multi-frame stream (each `shards` item is loaded, written, and
    /// dropped). The entry loads back through the same `load`/
    /// `latest_match` calls as a monolithic one.
    pub fn save_streamed<I>(&self, op_index: usize, op_name: &str, shards: I) -> Result<PathBuf>
    where
        I: IntoIterator<Item = Result<Dataset>>,
    {
        self.save_frames(op_index, op_name, shards)
    }

    /// Persist an in-memory sharded stage as a multi-frame entry straight
    /// from borrowed shards — no clone, no materialization. The entry
    /// loads back through the same `load`/`latest_match` calls as a
    /// monolithic one.
    pub fn save_shards(
        &self,
        op_index: usize,
        op_name: &str,
        shards: &[Dataset],
    ) -> Result<PathBuf> {
        self.save_frames(op_index, op_name, shards.iter().map(Ok))
    }

    fn save_frames<I, D>(&self, op_index: usize, op_name: &str, shards: I) -> Result<PathBuf>
    where
        I: IntoIterator<Item = Result<D>>,
        D: std::borrow::Borrow<Dataset>,
    {
        self.save_entry(op_index, op_name, |out| {
            let mut writer = ShardStreamWriter::new(out, self.codec);
            for shard in shards {
                writer.write(shard?.borrow())?;
            }
            Ok(())
        })
    }

    /// Persist a spilled stage from its already-encoded shard frames (row
    /// or columnar, one per item — e.g. `ShardSpool::read_frame_bytes` of
    /// every slot) by concatenating them into a multi-frame entry — no
    /// decode/re-encode round-trip and no materialization.
    pub fn save_encoded<I>(&self, op_index: usize, op_name: &str, frames: I) -> Result<PathBuf>
    where
        I: IntoIterator<Item = Result<Vec<u8>>>,
    {
        self.save_entry(op_index, op_name, |out| {
            for frame in frames {
                std::io::Write::write_all(out, &frame?)?;
            }
            Ok(())
        })
    }

    /// Load the dataset state after OP `op_index`, if cached.
    pub fn load(&self, op_index: usize, op_name: &str) -> Result<Option<Dataset>> {
        let path = self.entry_path(op_index, op_name);
        if !path.exists() {
            return Ok(None);
        }
        Ok(Some(read_entry(&fs::read(&path)?)?))
    }

    /// The most recent cached state whose `(index, name)` matches a prefix
    /// of `ops`: returns `(op_index, dataset)` for the longest usable
    /// entry, enabling resume-after-change (§4.1.1).
    pub fn latest_match(&self, ops: &[(usize, String)]) -> Result<Option<(usize, Dataset)>> {
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
                let ds = read_entry(&fs::read(&e.path)?)?;
                return Ok(Some((*idx, ds)));
            }
        }
        Ok(None)
    }

    /// Like [`CacheManager::latest_match`], but an entry saved as a
    /// multi-frame shard stream (a spilled stage) is rehydrated frame by
    /// frame into a [`ShardSpool`] under `spool_dir` instead of being
    /// materialized — at most one shard is in memory at a time, preserving
    /// the out-of-core memory ceiling across resume. Monolithic entries
    /// still come back as in-memory datasets; `spool_dir` is only created
    /// when a streamed entry is actually found.
    pub fn latest_match_streamed(
        &self,
        ops: &[(usize, String)],
        spool_dir: PathBuf,
    ) -> Result<Option<(usize, CachedStage)>> {
        let dir = self.dir();
        if !dir.exists() {
            return Ok(None);
        }
        let entries = list_entries(&dir)?;
        for (idx, name) in ops.iter().rev() {
            let Some(e) = entries
                .iter()
                .find(|e| e.op_index == *idx && e.op_name == safe_name(name))
            else {
                continue;
            };
            use std::io::{Read, Seek, SeekFrom};
            let mut file = fs::File::open(&e.path)?;
            let mut magic = [0u8; 4];
            let n = file.read(&mut magic)?;
            // Streamed entries may mix row (`DJSF`) and columnar (`DJSC`)
            // frames — e.g. saved by a columnar run; anything else is a
            // legacy whole-dataset entry.
            if n < 4 || (&magic != SHARD_FRAME_MAGIC && &magic != COLUMNAR_FRAME_MAGIC) {
                let ds = read_entry(&fs::read(&e.path)?)?;
                return Ok(Some((*idx, CachedStage::Mem(ds))));
            }
            file.seek(SeekFrom::Start(0))?;
            let frames = count_frames(&mut file)?;
            file.seek(SeekFrom::Start(0))?;
            let spool = ShardSpool::create(spool_dir, frames as usize, self.codec)?;
            let mut reader = ShardStreamReader::new(std::io::BufReader::new(file));
            for i in 0..frames as usize {
                let shard = reader.next_shard()?.ok_or_else(|| {
                    dj_core::DjError::Storage(format!("cache entry lost frame {i} of {frames}"))
                })?;
                spool.write_shard(i, &shard)?;
            }
            return Ok(Some((*idx, CachedStage::Spooled(spool))));
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

/// A resumed stage as [`CacheManager::latest_match_streamed`] hands it
/// back: in memory for monolithic entries, rehydrated into a disk spool
/// for streamed (spilled) ones.
pub enum CachedStage {
    Mem(Dataset),
    Spooled(ShardSpool),
}

/// Decode a cache entry: either a single compressed dataset frame (the
/// in-memory save path) or a multi-frame shard stream (the spilled path).
fn read_entry(bytes: &[u8]) -> Result<Dataset> {
    if bytes.starts_with(SHARD_FRAME_MAGIC) || bytes.starts_with(COLUMNAR_FRAME_MAGIC) {
        read_shard_stream(bytes)
    } else {
        from_bytes(&decompress(bytes)?)
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
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in clean.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
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

impl Drop for CacheManager {
    fn drop(&mut self) {
        // Nothing: entries intentionally outlive the manager so later runs
        // can resume. Call `clear()` for explicit cleanup.
    }
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
        let (idx, d) = cm.latest_match(&ops).unwrap().unwrap();
        assert_eq!(idx, 1);
        assert_eq!(d.len(), 8);
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
        let (idx, d) = cm
            .latest_match(&[(0usize, long_a.clone())])
            .unwrap()
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(d, ds(4));
        // A different long name does not collide.
        assert!(cm.load(0, &long_b).unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn streamed_entries_load_like_monolithic_ones() {
        let dir = tmpdir("streamed");
        let cm = CacheManager::new(&dir, 31, CacheMode::Cache);
        let full = ds(10);
        let shards: Vec<Dataset> = full.clone().into_shards(3);
        cm.save_streamed(0, "stage_a", shards.into_iter().map(Ok))
            .unwrap();
        assert_eq!(cm.load(0, "stage_a").unwrap().unwrap(), full);
        let (idx, back) = cm
            .latest_match(&[(0usize, "stage_a".to_string())])
            .unwrap()
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(back, full);
        // A failing shard iterator aborts the save and leaves no entry.
        let err_iter = vec![
            Ok(ds(2)),
            Err(dj_core::DjError::Storage("spill read failed".into())),
        ];
        assert!(cm.save_streamed(1, "stage_b", err_iter).is_err());
        assert!(cm.load(1, "stage_b").unwrap().is_none());
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
