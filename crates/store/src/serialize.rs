//! Dataset (de)serialization: a compact binary format for cache files and
//! JSONL for interchange (the exporter/importer the paper's pipelines end
//! with).

use std::borrow::Cow;

use dj_core::{parse_json, write_json, Dataset, DjError, Result, Sample, Value, MAX_NESTING_DEPTH};

const FORMAT_VERSION: u8 = 1;

/// Serialize a dataset to the binary cache format.
pub fn to_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut buf = Vec::with_capacity(dataset.approx_bytes() / 2 + 64);
    buf.push(FORMAT_VERSION);
    buf.extend_from_slice(&(dataset.len() as u64).to_le_bytes());
    for s in dataset.iter() {
        write_value(&mut buf, s.value());
    }
    buf
}

/// Deserialize a dataset from the binary cache format.
pub fn from_bytes(data: &[u8]) -> Result<Dataset> {
    let (n, mut cur) = read_header(data, "dataset")?;
    let mut samples = Vec::with_capacity(n.min(cur.len()));
    for _ in 0..n {
        samples.push(Sample::from_value(read_value_slice(&mut cur)?)?);
    }
    if !cur.is_empty() {
        return Err(DjError::Storage("trailing bytes after dataset".into()));
    }
    Ok(Dataset::from_samples(samples))
}

/// The header every tagged-value payload starts with — format version and
/// entry count — and the cursor positioned after it. `what` names the
/// payload in errors.
pub(crate) fn read_header<'a>(data: &'a [u8], what: &str) -> Result<(usize, &'a [u8])> {
    if data.len() < 9 {
        return Err(DjError::Storage(format!("{what} frame too short")));
    }
    if data[0] != FORMAT_VERSION {
        return Err(DjError::Storage(format!(
            "unsupported {what} format version {}",
            data[0]
        )));
    }
    Ok((le_u64(&data[1..9]) as usize, &data[9..]))
}

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_BOOL_FALSE: u8 = 1;
pub(crate) const TAG_BOOL_TRUE: u8 = 2;
pub(crate) const TAG_INT: u8 = 3;
pub(crate) const TAG_FLOAT: u8 = 4;
pub(crate) const TAG_STR: u8 = 5;
pub(crate) const TAG_LIST: u8 = 6;
pub(crate) const TAG_MAP: u8 = 7;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn write_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s);
        }
        Value::List(items) => {
            buf.push(TAG_LIST);
            buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                write_value(buf, item);
            }
        }
        Value::Map(m) => {
            buf.push(TAG_MAP);
            buf.extend_from_slice(&(m.len() as u32).to_le_bytes());
            for (k, val) in m {
                put_str(buf, k);
                write_value(buf, val);
            }
        }
    }
}

/// `u64` from the first 8 little-endian bytes of `b`, zero-padded if
/// shorter — every caller bound-checks first, so the pad never shows.
/// (Replaces the `try_into().expect("8 bytes")` idiom: length mistakes
/// here should decode garbage a checksum catches, not panic a worker.)
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = b.len().min(8);
    buf[..n].copy_from_slice(&b[..n]);
    u64::from_le_bytes(buf)
}

/// `u32` twin of [`le_u64`].
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    let n = b.len().min(4);
    buf[..n].copy_from_slice(&b[..n]);
    u32::from_le_bytes(buf)
}

/// Consume one serialized value, returning the borrowed string at
/// `segments` (or `""` when the path misses / lands on a non-string).
pub(crate) fn walk_path<'a>(cur: &mut &'a [u8], segments: &[&str]) -> Result<Cow<'a, str>> {
    let tag = take_u8(cur)?;
    if segments.is_empty() {
        if tag == TAG_STR {
            return Ok(Cow::Borrowed(take_str(cur)?));
        }
        skip_value_body(cur, tag, 0)?;
        return Ok(Cow::Borrowed(""));
    }
    if tag != TAG_MAP {
        skip_value_body(cur, tag, 0)?;
        return Ok(Cow::Borrowed(""));
    }
    let n = take_u32(cur)? as usize;
    let mut found = Cow::Borrowed("");
    for _ in 0..n {
        let key = take_str(cur)?;
        if key == segments[0] {
            found = walk_path(cur, &segments[1..])?;
        } else {
            skip_value(cur)?;
        }
    }
    Ok(found)
}

pub(crate) fn skip_value(cur: &mut &[u8]) -> Result<()> {
    skip_value_at(cur, 0)
}

/// [`skip_value`] for a value `depth` lists and maps down.
pub(crate) fn skip_value_at(cur: &mut &[u8], depth: usize) -> Result<()> {
    let tag = take_u8(cur)?;
    skip_value_body(cur, tag, depth)
}

/// The depth of a list or map's items, one below `depth`: a typed error
/// past [`MAX_NESTING_DEPTH`], so a nesting bomb behind a valid checksum
/// cannot overflow a decoder's stack.
pub(crate) fn deeper(depth: usize) -> Result<usize> {
    if depth == MAX_NESTING_DEPTH {
        return Err(DjError::Storage(format!(
            "value nested deeper than {MAX_NESTING_DEPTH} levels"
        )));
    }
    Ok(depth + 1)
}

/// The depth a column value starts at: one level inside its sample's root
/// object, so a column region is held to the same limit as a row frame.
pub(crate) const COLUMN_DEPTH: usize = 1;

/// Decode one tagged value from a slice cursor — the one owned-`Value`
/// decoder (row frames and column regions both come through here);
/// [`skip_value`] is its non-materializing twin.
pub(crate) fn read_value_slice(cur: &mut &[u8]) -> Result<Value> {
    read_value_at(cur, 0)
}

/// [`read_value_slice`] for a value `depth` lists and maps down.
pub(crate) fn read_value_at(cur: &mut &[u8], depth: usize) -> Result<Value> {
    let tag = take_u8(cur)?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(le_u64(take_bytes(cur, 8)?) as i64),
        TAG_FLOAT => Value::Float(f64::from_bits(le_u64(take_bytes(cur, 8)?))),
        TAG_STR => Value::Str(take_str(cur)?.to_string()),
        TAG_LIST => {
            let n = take_u32(cur)? as usize;
            let depth = deeper(depth)?;
            let mut items = Vec::with_capacity(n.min(cur.len()));
            for _ in 0..n {
                items.push(read_value_at(cur, depth)?);
            }
            Value::List(items)
        }
        TAG_MAP => {
            let n = take_u32(cur)? as usize;
            let depth = deeper(depth)?;
            let mut m = std::collections::BTreeMap::new();
            let mut prev = None;
            for _ in 0..n {
                let k = take_str(cur)?;
                check_key_order(&mut prev, k)?;
                m.insert(k.to_string(), read_value_at(cur, depth)?);
            }
            Value::Map(m)
        }
        other => return Err(DjError::Storage(format!("unknown value tag {other}"))),
    })
}

/// `key` must sort after the previous key of its map: every map this crate
/// writes is in `BTreeMap` order, so a frame with keys out of order (or
/// repeated) was written by something else, and is refused.
pub(crate) fn check_key_order<'a>(prev: &mut Option<&'a str>, key: &'a str) -> Result<()> {
    if prev.is_some_and(|p| p >= key) {
        return Err(DjError::Storage(format!(
            "map key `{key}` is out of order in frame"
        )));
    }
    *prev = Some(key);
    Ok(())
}

fn skip_value_body(cur: &mut &[u8], tag: u8, depth: usize) -> Result<()> {
    match tag {
        TAG_NULL | TAG_BOOL_FALSE | TAG_BOOL_TRUE => {}
        TAG_INT | TAG_FLOAT => {
            take_bytes(cur, 8)?;
        }
        TAG_STR => {
            let n = take_u32(cur)? as usize;
            take_bytes(cur, n)?;
        }
        TAG_LIST => {
            let n = take_u32(cur)? as usize;
            let depth = deeper(depth)?;
            for _ in 0..n {
                skip_value_at(cur, depth)?;
            }
        }
        TAG_MAP => {
            let n = take_u32(cur)? as usize;
            let depth = deeper(depth)?;
            for _ in 0..n {
                let k = take_u32(cur)? as usize;
                take_bytes(cur, k)?;
                skip_value_at(cur, depth)?;
            }
        }
        other => return Err(DjError::Storage(format!("unknown value tag {other}"))),
    }
    Ok(())
}

pub(crate) fn take_bytes<'a>(cur: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if cur.len() < n {
        return Err(DjError::Storage("truncated frame".into()));
    }
    let (head, tail) = cur.split_at(n);
    *cur = tail;
    Ok(head)
}

pub(crate) fn take_u8(cur: &mut &[u8]) -> Result<u8> {
    Ok(take_bytes(cur, 1)?[0])
}

pub(crate) fn take_u32(cur: &mut &[u8]) -> Result<u32> {
    Ok(le_u32(take_bytes(cur, 4)?))
}

pub(crate) fn take_u64(cur: &mut &[u8]) -> Result<u64> {
    Ok(le_u64(take_bytes(cur, 8)?))
}

pub(crate) fn take_str<'a>(cur: &mut &'a [u8]) -> Result<&'a str> {
    let n = take_u32(cur)? as usize;
    std::str::from_utf8(take_bytes(cur, n)?)
        .map_err(|_| DjError::Storage("invalid utf8 in string".into()))
}

/// Export a dataset as JSON-Lines text.
pub fn to_jsonl(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(dataset.approx_bytes());
    write_jsonl_into(dataset, &mut out);
    out
}

/// Append a dataset's JSON-Lines text to `out`, formatting each sample
/// straight into the buffer. Sharded egress writers reuse one buffer across
/// shards, so the hot path allocates nothing per sample (the old path built
/// a fresh escaped `String` per sample via `Value::to_string`).
pub fn write_jsonl_into(dataset: &Dataset, out: &mut String) {
    out.reserve(dataset.approx_bytes());
    for s in dataset.iter() {
        // Writing into a String cannot fail.
        let _ = write_json(out, s.value());
        out.push('\n');
    }
}

/// Import a dataset from JSON-Lines text.
pub fn from_jsonl(text: &str) -> Result<Dataset> {
    let mut samples = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            parse_json(line).map_err(|e| DjError::Parse(format!("jsonl line {}: {e}", no + 1)))?;
        samples.push(Sample::from_value(v)?);
    }
    Ok(Dataset::from_samples(samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rich_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let mut s = Sample::from_text("hello\nworld \"quoted\"");
        s.set_meta("language", "EN");
        s.set_meta("stars", 42i64);
        s.set_meta("tags", Value::from(vec!["a", "b"]));
        s.set_stat("word_count", 2.0);
        ds.push(s);
        ds.push(Sample::from_text("中文文本"));
        ds.push(Sample::new());
        ds
    }

    #[test]
    fn binary_roundtrip() {
        let ds = rich_dataset();
        let bytes = to_bytes(&ds);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn jsonl_roundtrip() {
        let ds = rich_dataset();
        let text = to_jsonl(&ds);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::new();
        assert_eq!(from_bytes(&to_bytes(&ds)).unwrap(), ds);
        assert_eq!(from_jsonl(&to_jsonl(&ds)).unwrap(), ds);
    }

    #[test]
    fn corrupt_binary_rejected() {
        assert!(from_bytes(&[]).is_err());
        assert!(from_bytes(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        let mut bytes = to_bytes(&rich_dataset());
        bytes.truncate(bytes.len() / 2);
        assert!(from_bytes(&bytes).is_err());
        let mut extra = to_bytes(&rich_dataset());
        extra.push(0);
        assert!(from_bytes(&extra).is_err());
    }

    #[test]
    fn corrupt_jsonl_rejected() {
        assert!(from_jsonl("{\"ok\": 1}\nnot json\n").is_err());
        assert!(from_jsonl("[1, 2, 3]\n").is_err()); // root must be a map
    }

    proptest! {
        #[test]
        fn prop_binary_roundtrip(texts in proptest::collection::vec(".*", 0..20)) {
            let mut ds = Dataset::new();
            for (i, t) in texts.iter().enumerate() {
                let mut s = Sample::from_text(t.clone());
                s.set_stat("idx", i as f64);
                ds.push(s);
            }
            let back = from_bytes(&to_bytes(&ds)).unwrap();
            prop_assert_eq!(back, ds);
        }

        #[test]
        fn prop_jsonl_roundtrip_no_nan(texts in proptest::collection::vec("[a-zA-Z0-9 \\n\"\\\\]{0,60}", 0..10)) {
            let mut ds = Dataset::new();
            for t in &texts {
                ds.push(Sample::from_text(t.clone()));
            }
            let back = from_jsonl(&to_jsonl(&ds)).unwrap();
            prop_assert_eq!(back, ds);
        }
    }
}
