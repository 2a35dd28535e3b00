//! Multi-file corpus reader: glob-expanded JSONL/CSV inputs, consumed as
//! one continuous sample stream and cut into `shard_size` shard frames.
//!
//! Shard cutting is where streaming ingest meets the executor's shard
//! driver: the reader never materializes more than one shard, and the
//! executor never holds more than one per worker — so a 10 GB file runs in
//! the same resident footprint as a 10 MB one.
//!
//! A shard cut by [`CorpusReader::next_split_shard`], told which top-level
//! fields a run's ops can touch, has only those parsed: every other field
//! of a record goes into the shard's [`RawColumns`] as canonical JSON text,
//! and stays that text until egress copies it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dj_core::{faults, Dataset, DjError, RawColumns, Result, Sample, Value};

use crate::csv::CsvReader;
use crate::glob::expand_glob;
use crate::jsonl::JsonlReader;
use crate::policy::ErrorLedger;

/// Input file formats, detected per file by extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFormat {
    Jsonl,
    Csv,
}

/// Detect a file's format from its extension (`.jsonl`/`.ndjson`/`.json`
/// stream as JSON-Lines; `.csv` as CSV).
pub fn detect_format(path: &Path) -> Result<FileFormat> {
    match path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("jsonl") | Some("ndjson") | Some("json") => Ok(FileFormat::Jsonl),
        Some("csv") => Ok(FileFormat::Csv),
        _ => Err(DjError::Config(format!(
            "unsupported input format: {} (expected .jsonl, .ndjson, .json or .csv)",
            path.display()
        ))),
    }
}

#[derive(Debug)]
enum FileReader {
    Jsonl(JsonlReader),
    Csv(CsvReader),
}

impl FileReader {
    fn open(path: &Path) -> Result<FileReader> {
        match detect_format(path)? {
            FileFormat::Jsonl => Ok(FileReader::Jsonl(JsonlReader::open(path)?)),
            FileFormat::Csv => Ok(FileReader::Csv(CsvReader::open(path)?)),
        }
    }

    fn next_sample(&mut self) -> Result<Option<Sample>> {
        match self {
            FileReader::Jsonl(r) => r.next_sample(),
            FileReader::Csv(r) => r.next_sample(),
        }
    }

    /// The next sample with the fields `parsed` does not name moved into
    /// `raw`'s next sample: left unparsed in a JSONL record, written back
    /// out of a CSV row.
    fn next_split(
        &mut self,
        parsed: &BTreeSet<String>,
        raw: &mut RawColumns,
    ) -> Result<Option<Sample>> {
        match self {
            FileReader::Jsonl(r) => r.next_split(parsed, raw),
            FileReader::Csv(r) => {
                let mut sample = r.next_sample()?;
                if let Some(sample) = &mut sample {
                    raw.take_inert(sample.value_mut(), |key| parsed.contains(key));
                    raw.close();
                }
                Ok(sample)
            }
        }
    }

    fn take_bad_record(&mut self) -> Option<String> {
        match self {
            FileReader::Jsonl(r) => r.take_bad_record(),
            FileReader::Csv(r) => r.take_bad_record(),
        }
    }

    fn bytes_read(&self) -> u64 {
        match self {
            FileReader::Jsonl(r) => r.bytes_read(),
            FileReader::Csv(r) => r.bytes_read(),
        }
    }
}

/// A glob's worth of corpus files, streamed as one sample sequence.
///
/// Sample order is deterministic: files in sorted glob order, lines in
/// file order — the same order `from_jsonl` would produce on the
/// concatenated text, which is what makes file-backed runs byte-identical
/// to in-memory ones.
#[derive(Debug)]
pub struct CorpusReader {
    files: Vec<PathBuf>,
    next_file: usize,
    current: Option<FileReader>,
    finished_bytes: u64,
    samples_read: u64,
    /// When set, malformed records are routed through the `on_error`
    /// policy (skipped/quarantined and counted) instead of aborting.
    ledger: Option<Arc<ErrorLedger>>,
    /// Set once an error has been returned: the stream ends there.
    failed: bool,
    /// Room the next split shard's raw columns start with: what the last
    /// one took, and an eighth more.
    raw_room: usize,
}

/// The fields to parse, and the raw columns every other field goes to.
type Split<'s> = (&'s BTreeSet<String>, &'s mut RawColumns);

/// A shard cut off the corpus stream by
/// [`CorpusReader::next_split_shard`].
#[derive(Debug)]
pub struct ReadShard {
    /// The samples, holding the fields the reader parsed.
    pub samples: Dataset,
    /// Every other field of each sample, as canonical JSON text (one
    /// sample per sample of `samples`).
    pub raw: RawColumns,
    /// Input bytes the shard was read from, the lines a policy absorbed
    /// included.
    pub bytes: u64,
}

impl CorpusReader {
    /// Open a corpus from a glob pattern (see [`expand_glob`]). Every
    /// matched file's format is validated up front, so a bad extension
    /// fails before any data is processed.
    pub fn from_pattern(pattern: &str) -> Result<CorpusReader> {
        let files = expand_glob(pattern)?;
        CorpusReader::from_files(files)
    }

    /// Open an explicit file list (kept in the given order).
    pub fn from_files(files: Vec<PathBuf>) -> Result<CorpusReader> {
        for f in &files {
            detect_format(f)?;
        }
        Ok(CorpusReader {
            files,
            next_file: 0,
            current: None,
            finished_bytes: 0,
            samples_read: 0,
            ledger: None,
            failed: false,
            raw_room: 0,
        })
    }

    /// Route malformed records through an error ledger instead of
    /// failing on the first one. The ledger also counts every record
    /// seen, the denominator of the error-ratio budget.
    pub fn with_ledger(mut self, ledger: Arc<ErrorLedger>) -> CorpusReader {
        self.ledger = Some(ledger);
        self
    }

    /// The files this reader will consume, in order.
    pub fn files(&self) -> &[PathBuf] {
        &self.files
    }

    /// Raw input bytes consumed so far, across all files.
    pub fn bytes_read(&self) -> u64 {
        self.finished_bytes + self.current.as_ref().map_or(0, FileReader::bytes_read)
    }

    /// Samples yielded so far.
    pub fn samples_read(&self) -> u64 {
        self.samples_read
    }

    /// The next sample, crossing file boundaries; `None` when every file
    /// is exhausted. With a ledger attached, malformed records are
    /// absorbed by the `on_error` policy and the scan continues; without
    /// one, the first parse error aborts (the `fail` behaviour).
    ///
    /// An error ends the stream: afterwards the reader yields nothing, so
    /// workers sharing it never read past the record that failed the run
    /// (a later record's failure could otherwise be reported first).
    pub fn next_sample(&mut self) -> Result<Option<Sample>> {
        self.next_into(None)
    }

    /// [`next_sample`](CorpusReader::next_sample), with the fields a
    /// `split` set does not name left unparsed in its raw columns.
    fn next_into(&mut self, split: Option<Split<'_>>) -> Result<Option<Sample>> {
        if self.failed {
            return Ok(None);
        }
        let next = self.read_sample(split);
        self.failed = next.is_err();
        next
    }

    fn read_sample(&mut self, mut split: Option<Split<'_>>) -> Result<Option<Sample>> {
        loop {
            let reader = match self.current.as_mut() {
                Some(r) => r,
                None => {
                    if self.next_file >= self.files.len() {
                        return Ok(None);
                    }
                    let opened = FileReader::open(&self.files[self.next_file])?;
                    self.next_file += 1;
                    self.current.insert(opened)
                }
            };
            faults::check("io.ingest.read")?;
            let next = match &mut split {
                Some((parsed, raw)) => reader.next_split(parsed, raw),
                None => reader.next_sample(),
            };
            match next {
                Ok(Some(s)) => {
                    self.samples_read += 1;
                    if let Some(ledger) = &self.ledger {
                        ledger.note_seen(1);
                    }
                    return Ok(Some(s));
                }
                Ok(None) => {
                    self.finished_bytes += reader.bytes_read();
                    self.current = None;
                }
                // Only parse errors are record-level; IO errors are the
                // whole file going bad and always propagate.
                Err(err @ DjError::Parse(_)) => {
                    let Some(ledger) = self.ledger.clone() else {
                        return Err(err);
                    };
                    ledger.note_seen(1);
                    let raw = reader.take_bad_record();
                    // Reader errors are formatted `path:line: message` —
                    // the prefix is the record's provenance.
                    let source = match &err {
                        DjError::Parse(m) => m.splitn(3, ':').take(2).collect::<Vec<_>>().join(":"),
                        _ => String::new(),
                    };
                    ledger.absorb(err, &source, || raw.map_or(Value::Null, Value::Str))?;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Cut the next shard of up to `shard_size` samples off the stream.
    /// Shards span file boundaries; `None` once the stream is dry.
    pub fn next_shard(&mut self, shard_size: usize) -> Result<Option<Dataset>> {
        self.fill(shard_size, None)
    }

    /// [`next_shard`](CorpusReader::next_shard) with only the top-level
    /// fields `parsed` names parsed (all of them for `None`): the others
    /// are the shard's raw columns. Also counts the input bytes the shard
    /// was read from.
    pub fn next_split_shard(
        &mut self,
        shard_size: usize,
        parsed: Option<&BTreeSet<String>>,
    ) -> Result<Option<ReadShard>> {
        let before = self.bytes_read();
        // Sized up front, the text is one allocation per shard rather than
        // a chain of doublings, each a copy of the last and a free block
        // the allocator may keep.
        let mut raw = RawColumns::with_capacity(self.raw_room);
        let Some(mut samples) = self.fill(shard_size, parsed.map(|p| (p, &mut raw)))? else {
            return Ok(None);
        };
        self.raw_room = raw.text_len() + raw.text_len() / 8;
        raw.restore_demoted(&mut samples)?;
        Ok(Some(ReadShard {
            samples,
            raw,
            bytes: self.bytes_read() - before,
        }))
    }

    fn fill(&mut self, shard_size: usize, mut split: Option<Split<'_>>) -> Result<Option<Dataset>> {
        debug_assert!(shard_size > 0, "shard_size must be positive");
        let mut shard = Dataset::new();
        while shard.len() < shard_size {
            let split = split.as_mut().map(|(parsed, raw)| (*parsed, &mut **raw));
            match self.next_into(split)? {
                Some(s) => shard.push(s),
                None => break,
            }
        }
        if shard.is_empty() {
            Ok(None)
        } else {
            Ok(Some(shard))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dj-reader-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(path: &Path, contents: impl AsRef<[u8]>) {
        let mut f = std::fs::File::create(path).unwrap();
        f.write_all(contents.as_ref()).unwrap();
    }

    #[test]
    fn shards_span_file_boundaries_in_sorted_order() {
        let dir = tmpdir("span");
        write(
            &dir.join("b.jsonl"),
            "{\"text\":\"three\"}\n{\"text\":\"four\"}\n",
        );
        write(
            &dir.join("a.jsonl"),
            "{\"text\":\"one\"}\n{\"text\":\"two\"}\n",
        );
        let mut r = CorpusReader::from_pattern(&format!("{}/*.jsonl", dir.display())).unwrap();
        assert_eq!(r.files().len(), 2);
        let s1 = r.next_shard(3).unwrap().unwrap();
        assert_eq!(
            s1.iter().map(|s| s.text()).collect::<Vec<_>>(),
            vec!["one", "two", "three"]
        );
        let s2 = r.next_shard(3).unwrap().unwrap();
        assert_eq!(
            s2.iter().map(|s| s.text()).collect::<Vec<_>>(),
            vec!["four"]
        );
        assert!(r.next_shard(3).unwrap().is_none());
        assert_eq!(r.samples_read(), 4);
        assert!(r.bytes_read() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_jsonl_and_csv_inputs() {
        let dir = tmpdir("mixed");
        write(&dir.join("a.csv"), "text\ncsv row\n");
        write(&dir.join("b.jsonl"), "{\"text\":\"json row\"}\n");
        let mut r = CorpusReader::from_pattern(&format!("{}/*", dir.display())).unwrap();
        let all = r.next_shard(10).unwrap().unwrap();
        assert_eq!(
            all.iter().map(|s| s.text()).collect::<Vec<_>>(),
            vec!["csv row", "json row"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_extension_fails_up_front() {
        let dir = tmpdir("ext");
        write(&dir.join("a.parquet"), "whatever");
        let err = CorpusReader::from_pattern(&format!("{}/*", dir.display())).unwrap_err();
        assert!(
            err.to_string().contains("unsupported input format"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_skip_policy_drops_malformed_records_and_continues() {
        use dj_core::OnError;
        let dir = tmpdir("skip");
        write(
            &dir.join("a.jsonl"),
            "{\"text\":\"good\"}\nnot json\n{\"text\":\"also good\"}\n",
        );
        let ledger = Arc::new(ErrorLedger::new(OnError::Skip, 1.0));
        let mut r = CorpusReader::from_pattern(&format!("{}/*.jsonl", dir.display()))
            .unwrap()
            .with_ledger(Arc::clone(&ledger));
        let shard = r.next_shard(10).unwrap().unwrap();
        assert_eq!(
            shard.iter().map(|s| s.text()).collect::<Vec<_>>(),
            vec!["good", "also good"]
        );
        assert_eq!(ledger.records_skipped(), 1);
        assert!((ledger.error_ratio() - 1.0 / 3.0).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_quarantine_preserves_raw_record_with_provenance() {
        use crate::policy::read_quarantine;
        use dj_core::OnError;
        let dir = tmpdir("quarantine");
        write(&dir.join("a.jsonl"), "{\"text\":\"fine\"}\n{broken json\n");
        write(&dir.join("b.csv"), "text,lang\nok,en\nonly-one\n");
        let ledger = Arc::new(ErrorLedger::new(OnError::Quarantine, 1.0));
        ledger.attach_dir(&dir).unwrap();
        let mut r = CorpusReader::from_files(vec![dir.join("a.jsonl"), dir.join("b.csv")])
            .unwrap()
            .with_ledger(Arc::clone(&ledger));
        let shard = r.next_shard(10).unwrap().unwrap();
        assert_eq!(
            shard.iter().map(|s| s.text()).collect::<Vec<_>>(),
            vec!["fine", "ok"]
        );
        ledger.finish().unwrap();
        let entries = read_quarantine(&ledger.quarantine_path().unwrap()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].record, Value::Str("{broken json".into()));
        assert!(
            entries[0].source.contains("a.jsonl:2"),
            "{}",
            entries[0].source
        );
        assert_eq!(entries[1].record, Value::Str("only-one".into()));
        assert!(
            entries[1].source.contains("b.csv:3"),
            "{}",
            entries[1].source
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_ledger_keeps_fail_fast_behaviour() {
        let dir = tmpdir("failfast");
        write(&dir.join("a.jsonl"), "nope\n");
        write(&dir.join("b.jsonl"), "{\"text\":\"after\"}\n");
        let mut r = CorpusReader::from_pattern(&format!("{}/*.jsonl", dir.display())).unwrap();
        assert!(matches!(r.next_shard(4).unwrap_err(), DjError::Parse(_)));
        // The error ended the stream: nothing past it is read.
        assert!(r.next_shard(4).unwrap().is_none());
        assert_eq!(r.samples_read(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One line holding a byte that is not UTF-8 is one bad record, under
    /// every policy: skipped, quarantined at its line, or a deterministic
    /// parse error — never an IO error that kills the ingest or is retried.
    #[test]
    fn a_line_that_is_not_utf8_is_a_record_error() {
        use crate::policy::read_quarantine;
        use dj_core::OnError;
        let dir = tmpdir("utf8");
        let file = dir.join("a.jsonl");
        write(
            &file,
            b"{\"text\":\"one\"}\n\xff\n{\"text\":\"three\"}\nnot json\n",
        );
        let texts = |shard: Dataset| {
            shard
                .iter()
                .map(|s| s.text().to_string())
                .collect::<Vec<_>>()
        };

        let ledger = Arc::new(ErrorLedger::new(OnError::Skip, 1.0));
        let mut r = CorpusReader::from_files(vec![file.clone()])
            .unwrap()
            .with_ledger(Arc::clone(&ledger));
        assert_eq!(texts(r.next_shard(10).unwrap().unwrap()), ["one", "three"]);
        assert_eq!(ledger.records_skipped(), 2);

        let ledger = Arc::new(ErrorLedger::new(OnError::Quarantine, 1.0));
        ledger.attach_dir(&dir).unwrap();
        let mut r = CorpusReader::from_files(vec![file.clone()])
            .unwrap()
            .with_ledger(Arc::clone(&ledger));
        assert_eq!(texts(r.next_shard(10).unwrap().unwrap()), ["one", "three"]);
        ledger.finish().unwrap();
        let entries = read_quarantine(&ledger.quarantine_path().unwrap()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].record, Value::Str("\u{fffd}".into()));
        assert!(
            entries[0].source.ends_with("a.jsonl:2"),
            "{}",
            entries[0].source
        );
        assert!(
            entries[1].source.ends_with("a.jsonl:4"),
            "{}",
            entries[1].source
        );

        let mut r = CorpusReader::from_files(vec![file]).unwrap();
        let err = r.next_shard(10).unwrap_err();
        assert!(matches!(err, DjError::Parse(_)), "{err:?}");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("a.jsonl:2: "), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_files_yield_no_shards() {
        let dir = tmpdir("empty");
        write(&dir.join("a.jsonl"), "");
        write(&dir.join("b.jsonl"), "\n\n");
        let mut r = CorpusReader::from_pattern(&format!("{}/*.jsonl", dir.display())).unwrap();
        assert!(r.next_shard(4).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
