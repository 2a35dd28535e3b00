//! Sharded, manifest-tracked egress writers.
//!
//! Output is a directory of `part-NNNNN` files (one per shard, written to
//! a temp name and atomically renamed) plus a `manifest.json` describing
//! every part: file name, sample count, byte size, and checksum with the
//! hash that took it (`checksum64`, a word at a time). While parts are
//! being written, an append-only `manifest.partial` log records each
//! committed part — so a killed run can be resumed: already committed
//! parts (verified by file name, size and checksum) are skipped,
//! everything else is rewritten. A log line that names no hash was
//! written by an earlier release, which summed parts with FNV-1a; resume
//! verifies it so, and seals the part under `checksum64`. `finish()` seals
//! the output by writing the full manifest and removing the partial log.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dj_core::{faults, parse_json, sync, Dataset, DjError, Result, Value};
use dj_hash::{checksum64, fnv1a};
use dj_store::serialize::write_jsonl_into;

/// The egress file format. One is left: a run's columnar artifact is its
/// cache entry directory, not an output format (`docs/formats.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// One JSON document per line.
    Jsonl,
}

impl OutputFormat {
    /// The name a sealed manifest records, and its parts' extension.
    pub fn name(&self) -> &'static str {
        match self {
            OutputFormat::Jsonl => "jsonl",
        }
    }
}

/// The file part `idx` is written to.
fn part_file(idx: usize, format: OutputFormat) -> String {
    format!("part-{idx:05}.{}", format.name())
}

/// The hash a part's checksum was taken with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartHash {
    /// [`dj_hash::checksum64`], a word at a time: every part this build
    /// writes or seals.
    Checksum64,
    /// FNV-1a, byte at a time: what an entry that names no hash was summed
    /// with by an earlier release. [`ShardedWriter`] reads and verifies
    /// it, and never writes it.
    Fnv1a,
}

impl PartHash {
    fn name(self) -> &'static str {
        match self {
            PartHash::Checksum64 => "checksum64",
            PartHash::Fnv1a => "fnv1a",
        }
    }
}

/// One committed output part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartEntry {
    pub file: String,
    pub samples: usize,
    pub bytes: u64,
    pub checksum: u64,
    /// The hash `checksum` was taken with.
    pub hash: PartHash,
}

impl PartEntry {
    /// The entry of a part holding `contents`, summed as this build sums.
    fn of(file: String, samples: usize, contents: &[u8]) -> PartEntry {
        PartEntry {
            file,
            samples,
            bytes: contents.len() as u64,
            checksum: checksum64(contents),
            hash: PartHash::Checksum64,
        }
    }

    /// Whether `contents` are this part: its size, and its checksum under
    /// the hash the entry names.
    fn holds(&self, contents: &[u8]) -> bool {
        contents.len() as u64 == self.bytes
            && match self.hash {
                PartHash::Checksum64 => checksum64(contents) == self.checksum,
                PartHash::Fnv1a => legacy_checksum_holds(contents, self.checksum),
            }
    }

    /// The checksum is written unsigned, as a string of decimal digits: a
    /// JSON number past 2⁵³ does not read back exactly in most readers
    /// (this workspace's parser reads an integer past `i64` as a float).
    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("file".to_string(), Value::Str(self.file.clone()));
        m.insert("samples".to_string(), Value::Int(self.samples as i64));
        m.insert("bytes".to_string(), Value::Int(self.bytes as i64));
        m.insert(
            "checksum".to_string(),
            Value::Str(self.checksum.to_string()),
        );
        m.insert("hash".to_string(), Value::Str(self.hash.name().into()));
        Value::Map(m)
    }

    /// Reads what [`to_value`](PartEntry::to_value) writes, and what
    /// earlier releases wrote: no `hash` (FNV-1a), and the checksum's bits
    /// printed as a signed integer.
    fn from_value(v: &Value) -> Result<PartEntry> {
        let bad = || DjError::Storage("malformed manifest part entry".into());
        let m = v.as_map().ok_or_else(bad)?;
        let hash = match m.get("hash") {
            None => PartHash::Fnv1a,
            Some(Value::Str(name)) if name == PartHash::Checksum64.name() => PartHash::Checksum64,
            Some(Value::Str(name)) if name == PartHash::Fnv1a.name() => PartHash::Fnv1a,
            Some(other) => {
                return Err(DjError::Storage(format!(
                    "manifest part entry names an unknown hash {other}"
                )))
            }
        };
        let checksum = match m.get("checksum") {
            Some(Value::Str(digits)) => digits.parse::<u64>().map_err(|_| bad())?,
            Some(Value::Int(signed)) => *signed as u64,
            _ => return Err(bad()),
        };
        // A count is never negative: one that is makes the entry malformed.
        let count = |key: &str| {
            let n = m.get(key).and_then(Value::as_int);
            n.and_then(|n| usize::try_from(n).ok()).ok_or_else(bad)
        };
        Ok(PartEntry {
            file: m
                .get("file")
                .and_then(Value::as_str)
                .ok_or_else(bad)?
                .to_string(),
            samples: count("samples")?,
            bytes: count("bytes")? as u64,
            checksum,
            hash,
        })
    }
}

/// Whether `contents` match `checksum` as an earlier release logged it:
/// FNV-1a, byte at a time. Resume is the only reader of such an entry, and
/// this is the only FNV-1a in this file: CI's "Egress parts are checksummed
/// by the word" step keeps it off the egress path.
fn legacy_checksum_holds(contents: &[u8], checksum: u64) -> bool {
    fnv1a(contents) == checksum
}

/// The sealed description of a sharded output directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgressManifest {
    pub format: OutputFormat,
    pub parts: Vec<PartEntry>,
    pub total_samples: usize,
    pub total_bytes: u64,
}

pub const MANIFEST_FILE: &str = "manifest.json";
const PARTIAL_LOG: &str = "manifest.partial";

impl EgressManifest {
    pub fn to_json(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("format".to_string(), Value::Str(self.format.name().into()));
        m.insert(
            "total_samples".to_string(),
            Value::Int(self.total_samples as i64),
        );
        m.insert(
            "total_bytes".to_string(),
            Value::Int(self.total_bytes as i64),
        );
        m.insert(
            "parts".to_string(),
            Value::List(self.parts.iter().map(PartEntry::to_value).collect()),
        );
        Value::Map(m).to_string()
    }

    /// Parse a sealed manifest. Its totals must be non-negative and equal
    /// the sums of its parts' counts; a manifest that disagrees with itself
    /// is malformed.
    pub fn from_json(text: &str) -> Result<EgressManifest> {
        let bad = || DjError::Storage("malformed egress manifest".into());
        let v = parse_json(text)?;
        let m = v.as_map().ok_or_else(bad)?;
        let format = match m.get("format").and_then(Value::as_str).ok_or_else(bad)? {
            "jsonl" => OutputFormat::Jsonl,
            other => {
                return Err(DjError::Storage(format!(
                    "egress manifest of format `{other}`: this build reads `jsonl` output only"
                )))
            }
        };
        let parts = m
            .get("parts")
            .and_then(Value::as_list)
            .ok_or_else(bad)?
            .iter()
            .map(PartEntry::from_value)
            .collect::<Result<Vec<_>>>()?;
        let total = |key: &str| {
            m.get(key)
                .and_then(Value::as_int)
                .and_then(|n| u64::try_from(n).ok())
        };
        let samples = parts
            .iter()
            .try_fold(0usize, |n, p| n.checked_add(p.samples));
        let bytes = parts.iter().try_fold(0u64, |n, p| n.checked_add(p.bytes));
        let (samples, bytes) = samples.zip(bytes).ok_or_else(bad)?;
        if total("total_samples") != Some(samples as u64) || total("total_bytes") != Some(bytes) {
            return Err(bad());
        }
        Ok(EgressManifest {
            format,
            parts,
            total_samples: samples,
            total_bytes: bytes,
        })
    }

    /// Load `manifest.json` from an output directory.
    pub fn load(dir: &Path) -> Result<EgressManifest> {
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path)
            .map_err(|e| DjError::Storage(format!("cannot read {}: {e}", path.display())))?;
        EgressManifest::from_json(&text)
    }
}

/// Sharded output writer with atomic parts and a commit log.
///
/// Thread-safe: distinct shard indices may be stored concurrently (the
/// executor's egress workers do), each part committing independently.
pub struct ShardedWriter {
    dir: PathBuf,
    format: OutputFormat,
    parts: Mutex<BTreeMap<usize, PartEntry>>,
    /// Parts found committed by a previous (killed) run — verified
    /// against size+checksum, skipped on re-store.
    resumed: BTreeMap<usize, PartEntry>,
    log: Mutex<File>,
    bytes_written: AtomicU64,
    /// Reusable JSONL serialization buffers, one checked out per
    /// in-flight `store_shard` — capacity warms up to the largest part
    /// instead of a fresh allocation per shard.
    bufs: Mutex<Vec<String>>,
}

impl ShardedWriter {
    /// Open `dir` for sharded output, resuming a previous partial run if
    /// its commit log is present.
    pub fn create(dir: impl Into<PathBuf>, format: OutputFormat) -> Result<ShardedWriter> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let resumed = Self::scan_partial(&dir, format)?;
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(PARTIAL_LOG))?;
        Ok(ShardedWriter {
            dir,
            format,
            parts: Mutex::new(BTreeMap::new()),
            resumed,
            log: Mutex::new(log),
            bytes_written: AtomicU64::new(0),
            bufs: Mutex::new(Vec::new()),
        })
    }

    /// Read the commit log and keep only entries that name the file this
    /// writer gives their part and whose file still matches it (exists,
    /// right size, right checksum under the hash its line names). A line
    /// naming another file — a part of another format, left by an earlier
    /// release's run into the same directory — is a miss: its part is
    /// rewritten, never sealed into a manifest it does not belong to. A
    /// part kept from a line of an earlier release is re-summed, so the
    /// manifest it is sealed into names one hash.
    fn scan_partial(dir: &Path, format: OutputFormat) -> Result<BTreeMap<usize, PartEntry>> {
        let log_path = dir.join(PARTIAL_LOG);
        let text = match fs::read_to_string(&log_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = BTreeMap::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            // A torn final line (crash mid-append) is not an error — the
            // part it described is simply rewritten.
            let Ok(v) = parse_json(line) else { continue };
            let idx = v.get_path("part").and_then(Value::as_int);
            let Some(idx) = idx.and_then(|i| usize::try_from(i).ok()) else {
                continue;
            };
            let Ok(entry) = PartEntry::from_value(&v) else {
                continue;
            };
            if entry.file != part_file(idx, format) {
                continue;
            }
            let Ok(contents) = fs::read(dir.join(&entry.file)) else {
                continue;
            };
            if entry.holds(&contents) {
                out.insert(idx, PartEntry::of(entry.file, entry.samples, &contents));
            }
        }
        Ok(out)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes physically written by *this* writer (resumed parts excluded).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Number of parts skipped because a previous run already wrote them.
    pub fn resumed_parts(&self) -> usize {
        self.resumed.len()
    }

    /// Whether part `idx` is already on disk from a previous run (verified
    /// at open); it is then adopted as it stands.
    fn adopt_resumed(&self, idx: usize) -> bool {
        let Some(prev) = self.resumed.get(&idx) else {
            return false;
        };
        sync::lock(&self.parts).insert(idx, prev.clone());
        true
    }

    /// Serialize and commit shard `idx`.
    pub fn store_shard(&self, idx: usize, shard: &Dataset) -> Result<()> {
        self.store_jsonl(idx, |buf| {
            write_jsonl_into(shard, buf);
            Ok(shard.len())
        })
    }

    /// Commit JSONL part `idx` from text the caller prints: `fill` appends
    /// the part's lines to one of the writer's reused part buffers (empty
    /// when handed over) and returns how many samples that was. This is how
    /// a spool transcodes straight into the part without building samples.
    pub fn store_jsonl(
        &self,
        idx: usize,
        fill: impl FnOnce(&mut String) -> Result<usize>,
    ) -> Result<()> {
        if self.adopt_resumed(idx) {
            return Ok(());
        }
        let mut buf = sync::lock(&self.bufs).pop().unwrap_or_default();
        buf.clear();
        let result = fill(&mut buf).and_then(|n| self.commit_part(idx, buf.as_bytes(), n));
        sync::lock(&self.bufs).push(buf);
        result
    }

    fn commit_part(&self, idx: usize, bytes: &[u8], samples: usize) -> Result<()> {
        let file = part_file(idx, self.format);
        let path = self.dir.join(&file);
        let tmp = path.with_extension(format!("{}.tmp", self.format.name()));
        // Injection points for the chaos harness. Both are *control*
        // sites (typed error, never corrupted bytes): egress parts are
        // not read back within the run, so silently damaging them would
        // defeat the atomic temp+rename+checksum protocol instead of
        // exercising it.
        faults::check("io.egress.write")?;
        fs::write(&tmp, bytes)?;
        faults::check("io.egress.rename")?;
        fs::rename(&tmp, &path)?;
        let entry = PartEntry::of(file, samples, bytes);
        // Log after the rename: a crash in between leaves a valid part
        // file that simply gets rewritten on resume.
        let mut line = entry.to_value();
        if let Value::Map(m) = &mut line {
            m.insert("part".to_string(), Value::Int(idx as i64));
        }
        {
            let mut log = sync::lock(&self.log);
            writeln!(log, "{line}")?;
        }
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        sync::lock(&self.parts).insert(idx, entry);
        Ok(())
    }

    /// Seal the output: verify parts form a contiguous `0..n`, write
    /// `manifest.json` atomically, drop the commit log.
    pub fn finish(self) -> Result<EgressManifest> {
        let parts = self
            .parts
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (expect, &got) in parts.keys().enumerate() {
            if expect != got {
                return Err(DjError::Storage(format!(
                    "egress is missing part {expect} (have {} parts)",
                    parts.len()
                )));
            }
        }
        let parts: Vec<PartEntry> = parts.into_values().collect();
        let manifest = EgressManifest {
            format: self.format,
            total_samples: parts.iter().map(|p| p.samples).sum(),
            total_bytes: parts.iter().map(|p| p.bytes).sum(),
            parts,
        };
        let path = self.dir.join(MANIFEST_FILE);
        let tmp = self.dir.join("manifest.json.tmp");
        fs::write(&tmp, manifest.to_json())?;
        fs::rename(&tmp, &path)?;
        let _ = fs::remove_file(self.dir.join(PARTIAL_LOG));
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_store::from_jsonl;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dj-writer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn shard(texts: &[&str]) -> Dataset {
        Dataset::from_texts(texts.iter().copied())
    }

    /// A commit-log line as earlier releases wrote it: no hash named, the
    /// part's FNV-1a checksum printed as a signed integer.
    fn legacy_line(idx: usize, file: &str, samples: usize, contents: &[u8]) -> String {
        format!(
            "{{\"bytes\":{},\"checksum\":{},\"file\":\"{file}\",\"part\":{idx},\"samples\":{samples}}}",
            contents.len(),
            fnv1a(contents) as i64
        )
    }

    #[test]
    fn a_checksum_with_the_high_bit_set_reads_in_both_forms() {
        let checksum = 16_983_201_986_236_672_459u64;
        assert!(checksum > i64::MAX as u64);
        // As this build writes it: unsigned digits, the hash named.
        let entry = PartEntry {
            file: "part-00000.jsonl".into(),
            samples: 64,
            bytes: 5113,
            checksum,
            hash: PartHash::Checksum64,
        };
        let text = entry.to_value().to_string();
        assert_eq!(
            text,
            "{\"bytes\":5113,\"checksum\":\"16983201986236672459\",\
             \"file\":\"part-00000.jsonl\",\"hash\":\"checksum64\",\"samples\":64}"
        );
        assert_eq!(
            PartEntry::from_value(&parse_json(&text).unwrap()).unwrap(),
            entry
        );
        // As earlier releases wrote it: the same bits, signed, no hash.
        let old = "{\"bytes\":5113,\"checksum\":-1463542087472879157,\
                   \"file\":\"part-00000.jsonl\",\"samples\":64}";
        let read = PartEntry::from_value(&parse_json(old).unwrap()).unwrap();
        assert_eq!(read.checksum, checksum);
        assert_eq!(read.hash, PartHash::Fnv1a);
        // A sealed manifest round-trips; an unknown hash is refused.
        let manifest = EgressManifest {
            format: OutputFormat::Jsonl,
            parts: vec![entry],
            total_samples: 64,
            total_bytes: 5113,
        };
        assert_eq!(
            EgressManifest::from_json(&manifest.to_json()).unwrap(),
            manifest
        );
        let unknown = text.replace("checksum64", "crc32");
        let err = PartEntry::from_value(&parse_json(&unknown).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown hash"), "{err}");
    }

    #[test]
    fn a_manifest_whose_totals_disagree_with_its_parts_is_refused() {
        let dir = tmpdir("bad-totals");
        let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
        w.store_shard(0, &shard(&["a", "b"])).unwrap();
        w.store_shard(1, &shard(&["c"])).unwrap();
        let sealed = w.finish().unwrap();
        assert_eq!(EgressManifest::load(&dir).unwrap(), sealed);
        let text = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let bytes = format!("\"total_bytes\":{}", sealed.total_bytes);
        for (from, to) in [
            ("\"total_samples\":3", "\"total_samples\":-1".to_string()),
            ("\"total_samples\":3", "\"total_samples\":4".to_string()),
            (bytes.as_str(), "\"total_bytes\":-5".to_string()),
            (
                bytes.as_str(),
                format!("\"total_bytes\":{}", sealed.total_bytes + 1),
            ),
        ] {
            assert!(text.contains(from), "{text}");
            fs::write(dir.join(MANIFEST_FILE), text.replace(from, &to)).unwrap();
            let err = EgressManifest::load(&dir).unwrap_err();
            assert!(err.to_string().contains("malformed"), "{to}: {err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_an_earlier_release_wrote_resumes_with_its_intact_parts_kept() {
        let dir = tmpdir("legacy");
        let shards = [shard(&["a", "b"]), shard(&["c"]), shard(&["d", "e"])];
        // Parts 0..3 committed, then the log rewritten as an earlier
        // release logged them.
        {
            let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
            for (i, s) in shards.iter().enumerate() {
                w.store_shard(i, s).unwrap();
            }
        }
        let file = |i: usize| format!("part-{i:05}.jsonl");
        let mut log = String::new();
        for (i, s) in shards.iter().enumerate() {
            let contents = fs::read(dir.join(file(i))).unwrap();
            log.push_str(&legacy_line(i, &file(i), s.len(), &contents));
            log.push('\n');
        }
        fs::write(dir.join(PARTIAL_LOG), log).unwrap();
        // Part 1 damaged since: same size, one byte flipped.
        let mut damaged = fs::read(dir.join(file(1))).unwrap();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x20;
        fs::write(dir.join(file(1)), &damaged).unwrap();

        let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
        assert_eq!(w.resumed_parts(), 2, "parts 0 and 2 are intact");
        for (i, s) in shards.iter().enumerate() {
            w.store_shard(i, s).unwrap();
        }
        let rewritten = fs::metadata(dir.join(file(1))).unwrap().len();
        assert_eq!(w.bytes_written(), rewritten);
        let manifest = w.finish().unwrap();
        let sealed = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(sealed.matches("\"hash\":\"checksum64\"").count(), 3);
        for (i, (part, s)) in manifest.parts.iter().zip(&shards).enumerate() {
            let bytes = fs::read(dir.join(&part.file)).unwrap();
            assert_eq!(part.hash, PartHash::Checksum64, "part {i}");
            assert_eq!(part.checksum, checksum64(&bytes), "part {i}");
            let back = from_jsonl(std::str::from_utf8(&bytes).unwrap());
            assert_eq!(back.unwrap(), *s, "part {i}");
        }
        assert_eq!(EgressManifest::load(&dir).unwrap(), manifest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_parts_and_manifest_roundtrip() {
        let dir = tmpdir("jsonl");
        let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
        let shards = [shard(&["one", "two"]), shard(&["three"])];
        // Out-of-order stores are fine — parts are named by index.
        w.store_shard(1, &shards[1]).unwrap();
        w.store_shard(0, &shards[0]).unwrap();
        assert!(w.bytes_written() > 0);
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.total_samples, 3);
        assert_eq!(manifest.parts.len(), 2);
        assert!(!dir.join(PARTIAL_LOG).exists());
        // Reload and verify contents.
        let loaded = EgressManifest::load(&dir).unwrap();
        assert_eq!(loaded, manifest);
        let mut all = Dataset::new();
        for p in &loaded.parts {
            let text = fs::read_to_string(dir.join(&p.file)).unwrap();
            assert_eq!(checksum64(text.as_bytes()), p.checksum);
            assert_eq!(p.hash, PartHash::Checksum64);
            all.extend(from_jsonl(&text).unwrap());
        }
        assert_eq!(all, Dataset::from_shards(shards.to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_run_resumes_without_rewriting_committed_parts() {
        let dir = tmpdir("resume");
        let shards = [shard(&["a"]), shard(&["b"]), shard(&["c"])];
        {
            // First run commits parts 0 and 2, then "dies" before finish.
            let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
            w.store_shard(0, &shards[0]).unwrap();
            w.store_shard(2, &shards[2]).unwrap();
            drop(w);
        }
        assert!(dir.join(PARTIAL_LOG).exists());
        let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
        assert_eq!(w.resumed_parts(), 2);
        for (i, s) in shards.iter().enumerate() {
            w.store_shard(i, s).unwrap();
        }
        // Only the missing part was physically written.
        let part1_len = fs::metadata(dir.join("part-00001.jsonl")).unwrap().len();
        assert_eq!(w.bytes_written(), part1_len);
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.total_samples, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A sample count is never negative. A commit-log line that says so
    /// is a miss, so its part is rewritten: adopted, its count read as
    /// `usize::MAX` and overflowed the manifest's total.
    #[test]
    fn a_negative_sample_count_in_the_log_is_a_miss() {
        let dir = tmpdir("negative");
        let shards = [shard(&["a", "b"]), shard(&["c"]), shard(&["d", "e"])];
        {
            let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
            for (i, s) in shards.iter().enumerate() {
                w.store_shard(i, s).unwrap();
            }
        }
        let log = fs::read_to_string(dir.join(PARTIAL_LOG)).unwrap();
        let edited: String = log
            .lines()
            .map(|line| {
                let line = if line.contains("\"part\":0") {
                    line.replace("\"samples\":2", "\"samples\":-1")
                } else {
                    line.to_string()
                };
                line + "\n"
            })
            .collect();
        assert_ne!(edited, log, "part 0's line was not edited");
        fs::write(dir.join(PARTIAL_LOG), edited).unwrap();

        let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
        assert_eq!(w.resumed_parts(), 2, "parts 1 and 2 are intact");
        for (i, s) in shards.iter().enumerate() {
            w.store_shard(i, s).unwrap();
        }
        let part0 = fs::metadata(dir.join("part-00000.jsonl")).unwrap().len();
        assert_eq!(w.bytes_written(), part0, "only part 0 is rewritten");
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.parts[0].samples, 2);
        assert_eq!(manifest.total_samples, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_part_is_rewritten_on_resume() {
        let dir = tmpdir("corrupt");
        {
            let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
            w.store_shard(0, &shard(&["original"])).unwrap();
            drop(w);
        }
        // Corrupt the committed part; its checksum no longer matches.
        fs::write(dir.join("part-00000.jsonl"), "tampered\n").unwrap();
        let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
        assert_eq!(w.resumed_parts(), 0, "corrupt part must not be trusted");
        w.store_shard(0, &shard(&["original"])).unwrap();
        let manifest = w.finish().unwrap();
        let text = fs::read_to_string(dir.join(&manifest.parts[0].file)).unwrap();
        assert!(text.contains("original"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// An earlier release's `frames` run into the same directory logged
    /// its parts under another name (`part-NNNNN.djs`, a row frame each). A
    /// line whose file is not the one this writer gives its part is a miss,
    /// however well the file holds its size and checksum: the part is
    /// written again as JSONL, and the manifest names only JSONL parts.
    #[test]
    fn a_logged_part_of_another_name_is_rewritten_on_resume() {
        let dir = tmpdir("other-name");
        let shards = [shard(&["a"]), shard(&["b", "c"])];
        {
            let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
            w.store_shard(1, &shards[1]).unwrap();
        }
        let row = b"DJSF: a row frame part an earlier release wrote".as_slice();
        fs::write(dir.join("part-00000.djs"), row).unwrap();
        let mut line = PartEntry::of("part-00000.djs".into(), 1, row).to_value();
        if let Value::Map(m) = &mut line {
            m.insert("part".to_string(), Value::Int(0));
        }
        let mut log = OpenOptions::new()
            .append(true)
            .open(dir.join(PARTIAL_LOG))
            .unwrap();
        writeln!(log, "{line}").unwrap();
        drop(log);

        let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
        assert_eq!(w.resumed_parts(), 1, "only part 1 is this writer's");
        for (i, s) in shards.iter().enumerate() {
            w.store_shard(i, s).unwrap();
        }
        let written = w.bytes_written();
        let manifest = w.finish().unwrap();
        assert_eq!(written, manifest.parts[0].bytes);
        for (i, (part, s)) in manifest.parts.iter().zip(&shards).enumerate() {
            assert_eq!(part.file, format!("part-{i:05}.jsonl"));
            let text = fs::read_to_string(dir.join(&part.file)).unwrap();
            assert_eq!(checksum64(text.as_bytes()), part.checksum);
            assert_eq!(from_jsonl(&text).unwrap(), *s);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_part_fails_finish() {
        let dir = tmpdir("gap");
        let w = ShardedWriter::create(&dir, OutputFormat::Jsonl).unwrap();
        w.store_shard(0, &shard(&["a"])).unwrap();
        w.store_shard(2, &shard(&["c"])).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("missing part 1"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A manifest an earlier release sealed over `frames` parts names a
    /// format this build does not read: a typed storage error.
    #[test]
    fn a_manifest_of_another_format_is_refused() {
        let manifest = EgressManifest {
            format: OutputFormat::Jsonl,
            parts: Vec::new(),
            total_samples: 0,
            total_bytes: 0,
        };
        let text = manifest.to_json();
        assert_eq!(EgressManifest::from_json(&text).unwrap(), manifest);
        for other in ["frames", "parquet"] {
            let text = text.replace("\"jsonl\"", &format!("\"{other}\""));
            let err = EgressManifest::from_json(&text).unwrap_err();
            assert!(matches!(err, DjError::Storage(_)), "{other}: {err:?}");
            assert!(err.to_string().contains(other), "{err}");
        }
    }
}
