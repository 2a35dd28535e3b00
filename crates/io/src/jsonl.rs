//! Streaming JSONL reader: one sample per line, parsed as it is pulled,
//! never holding more than the current line in memory.
//!
//! Semantics mirror `dj_store::from_jsonl` (blank lines are skipped) so a
//! file-backed run is byte-identical to loading the same text in memory.
//! Malformed records surface as typed [`DjError::Parse`] errors carrying
//! `path:line` — a 10 GB corpus with one bad record at line 7 004 113
//! fails with that number, not a panic. A line that is not UTF-8 is such a
//! record too, not an IO error: it is counted, and `on_error` can skip or
//! quarantine it.
//!
//! [`JsonlReader::next_split`] reads the way a run ingests: only the
//! top-level fields the run's ops can touch are parsed, and every other
//! field goes to the shard's [`RawColumns`] as canonical JSON text
//! ([`dj_core::parse_record`]), accepted and refused exactly as a whole
//! parse would.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use dj_core::{parse_json, parse_record, DjError, RawColumns, Result, Sample};

#[derive(Debug)]
pub struct JsonlReader {
    reader: BufReader<File>,
    path: PathBuf,
    line_no: usize,
    bytes_read: u64,
    buf: Vec<u8>,
    /// Raw text of the last line that failed to parse, for quarantine.
    bad_record: Option<String>,
}

impl JsonlReader {
    pub fn open(path: impl AsRef<Path>) -> Result<JsonlReader> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| io_at(&path, "cannot open", e))?;
        Ok(JsonlReader {
            reader: BufReader::new(file),
            path,
            line_no: 0,
            bytes_read: 0,
            buf: Vec::new(),
            bad_record: None,
        })
    }

    /// Read lines into `buf` (a buffer another reader used), not a new one.
    pub fn with_line_buffer(mut self, buf: Vec<u8>) -> JsonlReader {
        self.buf = buf;
        self
    }

    /// The line buffer, for the next file's reader.
    pub fn into_line_buffer(self) -> Vec<u8> {
        self.buf
    }

    /// Raw input bytes consumed so far (newlines included).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The next sample, or `None` at end of file. Blank lines are skipped.
    /// A line that is not UTF-8 is a record-level [`DjError::Parse`] like
    /// any malformed JSON, so the `on_error` policy can absorb it.
    pub fn next_sample(&mut self) -> Result<Option<Sample>> {
        self.next_with(|line| parse_json(line).and_then(Sample::from_value))
    }

    /// [`next_sample`](JsonlReader::next_sample) with the top-level fields
    /// `parsed` does not name left unparsed: they become `raw`'s next
    /// sample, which a malformed line leaves untouched.
    pub fn next_split(
        &mut self,
        parsed: &BTreeSet<String>,
        raw: &mut RawColumns,
    ) -> Result<Option<Sample>> {
        self.next_with(|line| parse_record(line, parsed, raw))
    }

    fn next_with(
        &mut self,
        mut parse: impl FnMut(&str) -> Result<Sample>,
    ) -> Result<Option<Sample>> {
        loop {
            self.buf.clear();
            let n = self
                .reader
                .read_until(b'\n', &mut self.buf)
                .map_err(|e| io_at(&self.path, "read", e))?;
            if n == 0 {
                return Ok(None);
            }
            self.bytes_read += n as u64;
            self.line_no += 1;
            let parsed = match std::str::from_utf8(&self.buf) {
                Ok(text) => {
                    let line = text.trim_end_matches(['\n', '\r']);
                    if line.trim().is_empty() {
                        continue;
                    }
                    parse(line)
                }
                Err(e) => Err(DjError::Parse(format!("invalid UTF-8: {e}"))),
            };
            return match parsed {
                Ok(sample) => Ok(Some(sample)),
                Err(e) => {
                    let err = self.line_error(&e);
                    let raw = String::from_utf8_lossy(&self.buf);
                    self.bad_record = Some(raw.trim_end_matches(['\n', '\r']).to_string());
                    Err(err)
                }
            };
        }
    }

    /// The raw text of the line behind the last parse error, if any.
    /// Consumed by the corpus reader when routing malformed records
    /// through the `on_error` policy.
    pub fn take_bad_record(&mut self) -> Option<String> {
        self.bad_record.take()
    }

    fn line_error(&self, inner: &DjError) -> DjError {
        DjError::Parse(format!("{}:{}: {inner}", self.path.display(), self.line_no))
    }
}

/// Wrap an io::Error with the file it happened on.
pub(crate) fn io_at(path: &Path, what: &str, e: std::io::Error) -> DjError {
    DjError::Io(std::io::Error::new(
        e.kind(),
        format!("{what} {}: {e}", path.display()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpfile(tag: &str, contents: impl AsRef<[u8]>) -> PathBuf {
        let path = std::env::temp_dir().join(format!("dj-jsonl-{tag}-{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents.as_ref()).unwrap();
        path
    }

    #[test]
    fn reads_samples_and_skips_blank_lines() {
        let path = tmpfile(
            "ok",
            "{\"text\":\"first\"}\n\n   \n{\"text\":\"sec\\u00f6nd\",\"meta\":{\"lang\":\"de\"}}\n",
        );
        let mut r = JsonlReader::open(&path).unwrap();
        let a = r.next_sample().unwrap().unwrap();
        assert_eq!(a.text(), "first");
        let b = r.next_sample().unwrap().unwrap();
        assert_eq!(b.text(), "secönd");
        assert_eq!(b.meta("lang").unwrap().as_str(), Some("de"));
        assert!(r.next_sample().unwrap().is_none());
        assert!(r.bytes_read() > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_line_reports_path_and_line_number() {
        let path = tmpfile("bad", "{\"text\":\"ok\"}\n\nnot json at all\n");
        let mut r = JsonlReader::open(&path).unwrap();
        assert!(r.next_sample().unwrap().is_some());
        let err = r.next_sample().unwrap_err();
        assert!(matches!(err, DjError::Parse(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains(":3:"), "line number missing: {msg}");
        assert!(msg.contains("dj-jsonl-bad"), "path missing: {msg}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_parse_error_at_its_line() {
        let path = tmpfile(
            "utf8",
            b"{\"text\":\"one\"}\n{\"text\":\"t\xffo\"}\n{\"text\":\"three\"}\nnot json\n",
        );
        let mut r = JsonlReader::open(&path).unwrap();
        assert_eq!(r.next_sample().unwrap().unwrap().text(), "one");
        let err = r.next_sample().unwrap_err();
        assert!(matches!(err, DjError::Parse(_)), "{err:?}");
        assert!(!err.is_transient());
        assert!(err.to_string().contains(":2: "), "{err}");
        assert_eq!(
            r.take_bad_record().as_deref(),
            Some("{\"text\":\"t\u{fffd}o\"}")
        );
        // The bad line was counted: the reader carries on, and the next
        // error names its own line.
        assert_eq!(r.next_sample().unwrap().unwrap().text(), "three");
        let err = r.next_sample().unwrap_err();
        assert!(err.to_string().contains(":4: "), "{err}");
        assert!(r.next_sample().unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_map_root_is_a_typed_error_with_line() {
        let path = tmpfile("root", "[1,2,3]\n");
        let mut r = JsonlReader::open(&path).unwrap();
        let err = r.next_sample().unwrap_err();
        assert!(err.to_string().contains(":1:"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            JsonlReader::open("/no/such/dir/x.jsonl").unwrap_err(),
            DjError::Io(_)
        ));
    }
}
