//! Frame → JSONL transcoding: the way out of a spool.
//!
//! JSONL egress of spilled data is not a decode: [`FrameSlab::write_jsonl`]
//! walks the tagged-value bytes of an undecoded row frame, and
//! [`ColumnarSlab::write_jsonl`] one cursor per column region, printing
//! JSON text straight into the caller's (reused) part buffer through
//! `dj-core`'s byte-level writer — the same writer `Value`'s `Display`
//! uses, so the text equals `decode()` → `write_jsonl_into` byte for byte.
//! No `Sample`, `Value` or `BTreeMap` is built on the way, and samples a
//! deferred barrier mask drops are stepped over by [`skip_value_at`].
//!
//! Key order is the stored order, which for every frame this crate writes
//! is `BTreeMap` order (a row map's entries, a columnar directory). A frame
//! whose keys are not strictly ascending was not written by this crate; it
//! is refused with a typed error rather than printed in an order the
//! decoding path would not have produced.

use std::fmt::Write as _;

use dj_core::{write_json_f64, write_json_str, DjError, Result};

use crate::columnar::ColumnarSlab;
use crate::serialize::{
    deeper, le_u64, skip_value_at, take_bytes, take_str, take_u32, take_u8, COLUMN_DEPTH,
    TAG_BOOL_FALSE, TAG_BOOL_TRUE, TAG_FLOAT, TAG_INT, TAG_LIST, TAG_MAP, TAG_NULL, TAG_STR,
};
use crate::shard_stream::FrameSlab;

/// `keep`, when present, must cover the frame's `samples` exactly.
pub(crate) fn check_mask(keep: Option<&[bool]>, samples: usize) -> Result<()> {
    match keep {
        Some(k) if k.len() != samples => Err(DjError::Storage(format!(
            "keep mask covers {} samples, frame has {samples}",
            k.len()
        ))),
        _ => Ok(()),
    }
}

/// Whether `keep` keeps sample `i` (no mask keeps everything).
pub(crate) fn keeps(keep: Option<&[bool]>, i: usize) -> bool {
    keep.is_none_or(|k| k[i])
}

/// `key` must sort after the previous key of its map.
fn check_key_order<'a>(prev: &mut Option<&'a str>, key: &'a str) -> Result<()> {
    if prev.is_some_and(|p| p >= key) {
        return Err(DjError::Storage(format!(
            "map key `{key}` is out of order in frame"
        )));
    }
    *prev = Some(key);
    Ok(())
}

// Writing into a `String` cannot fail, so the `fmt::Result`s below are
// dropped.

/// Print the tagged value at `cur` as JSON text, consuming it; `depth` is
/// how many lists and maps enclose it.
fn transcode_value(cur: &mut &[u8], out: &mut String, depth: usize) -> Result<()> {
    match take_u8(cur)? {
        TAG_NULL => out.push_str("null"),
        TAG_BOOL_FALSE => out.push_str("false"),
        TAG_BOOL_TRUE => out.push_str("true"),
        TAG_INT => {
            let _ = write!(out, "{}", le_u64(take_bytes(cur, 8)?) as i64);
        }
        TAG_FLOAT => {
            let _ = write_json_f64(out, f64::from_bits(le_u64(take_bytes(cur, 8)?)));
        }
        TAG_STR => {
            let _ = write_json_str(out, take_str(cur)?);
        }
        TAG_LIST => {
            let depth = deeper(depth)?;
            out.push('[');
            for i in 0..take_u32(cur)? {
                if i > 0 {
                    out.push(',');
                }
                transcode_value(cur, out, depth)?;
            }
            out.push(']');
        }
        TAG_MAP => {
            let depth = deeper(depth)?;
            out.push('{');
            let mut prev = None;
            for i in 0..take_u32(cur)? {
                if i > 0 {
                    out.push(',');
                }
                let key = take_str(cur)?;
                check_key_order(&mut prev, key)?;
                let _ = write_json_str(out, key);
                out.push(':');
                transcode_value(cur, out, depth)?;
            }
            out.push('}');
        }
        other => return Err(DjError::Storage(format!("unknown value tag {other}"))),
    }
    Ok(())
}

impl FrameSlab {
    /// Append the JSON-Lines text of this frame's samples to `out` — those
    /// `keep` keeps, all of them without a mask — and return how many lines
    /// that was.
    pub fn write_jsonl(&self, keep: Option<&[bool]>, out: &mut String) -> Result<usize> {
        let mut written = 0;
        self.walk(keep, |cur| {
            if cur.first() != Some(&TAG_MAP) {
                return Err(DjError::Field("sample root must be a map".into()));
            }
            transcode_value(cur, out, 0)?;
            out.push('\n');
            written += 1;
            Ok(())
        })?;
        Ok(written)
    }
}

impl ColumnarSlab {
    /// Append the JSON-Lines text of this frame's samples to `out` — those
    /// `keep` keeps, all of them without a mask — and return how many lines
    /// that was. Every region is decompressed once and walked by a cursor of
    /// its own; a sample's object lists the columns whose presence byte is
    /// set, in directory order.
    pub fn write_jsonl(&self, keep: Option<&[bool]>, out: &mut String) -> Result<usize> {
        check_mask(keep, self.sample_count())?;
        let regions = self.raw_regions()?;
        let mut prev = None;
        let mut keys = Vec::with_capacity(regions.len());
        for (name, _) in &regions {
            check_key_order(&mut prev, name)?;
            let mut key = String::with_capacity(name.len() + 3);
            let _ = write_json_str(&mut key, name);
            key.push(':');
            keys.push(key);
        }
        let mut cursors: Vec<&[u8]> = regions.iter().map(|(_, data)| data.as_slice()).collect();
        let mut written = 0;
        for i in 0..self.sample_count() {
            let kept = keeps(keep, i);
            let mut first = true;
            if kept {
                out.push('{');
            }
            for (cur, key) in cursors.iter_mut().zip(&keys) {
                match take_u8(cur)? {
                    0 => {}
                    1 if !kept => skip_value_at(cur, COLUMN_DEPTH)?,
                    1 => {
                        if !std::mem::take(&mut first) {
                            out.push(',');
                        }
                        out.push_str(key);
                        transcode_value(cur, out, COLUMN_DEPTH)?;
                    }
                    other => {
                        return Err(DjError::Storage(format!("bad presence byte {other}")));
                    }
                }
            }
            if kept {
                out.push_str("}\n");
                written += 1;
            }
        }
        if cursors.iter().any(|cur| !cur.is_empty()) {
            return Err(DjError::Storage("trailing bytes after column".into()));
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use crate::columnar::encode_columnar_frame;
    use crate::frame::{envelope::seal, SHARD_FRAME_MAGIC};
    use crate::serialize::{to_jsonl, write_value};
    use crate::shard_stream::encode_shard_frame;
    use dj_core::{Dataset, Sample, Value};

    fn rich_shard() -> Dataset {
        let mut ds = Dataset::new();
        let mut a = Sample::from_text("hello\nworld \"quoted\" \\ \u{1} \u{7f} é 😀");
        a.set_meta("language", "EN");
        a.set_meta("stars", 42i64);
        a.set_meta("tags", Value::from(vec!["a", "b"]));
        a.set_meta("empty", Value::List(Vec::new()));
        a.set_stat("ratio", 0.25);
        a.set_stat("whole", 2.0);
        a.set_stat("nan", f64::NAN);
        ds.push(a);
        ds.push(Sample::from_text("中文文本"));
        ds.push(Sample::new());
        let mut n = Sample::new();
        n.value_mut().set_path("text", Value::Null).unwrap();
        n.value_mut()
            .set_path("extra.nested", Value::from(vec![Value::Bool(true)]))
            .unwrap();
        ds.push(n);
        ds
    }

    fn masked(ds: &Dataset, keep: &[bool]) -> Dataset {
        let mut out = ds.clone();
        out.retain_mask(keep);
        out
    }

    #[test]
    fn both_transcoders_print_what_decode_then_display_prints() {
        let ds = rich_shard();
        let row = FrameSlab::from_frame_bytes(&encode_shard_frame(&ds, Codec::Djz)).unwrap();
        let col = ColumnarSlab::from_frame_bytes(&encode_columnar_frame(&ds, Codec::Djz)).unwrap();
        let masks: [Option<&[bool]>; 4] = [
            None,
            Some(&[true, false, true, false]),
            Some(&[false, false, false, true]),
            Some(&[false; 4]),
        ];
        for keep in masks {
            let expected = to_jsonl(&keep.map_or_else(|| ds.clone(), |k| masked(&ds, k)));
            let mut out = String::from("prefix\n");
            let n = row.write_jsonl(keep, &mut out).unwrap();
            assert_eq!(out, format!("prefix\n{expected}"), "row {keep:?}");
            assert_eq!(n, expected.lines().count());
            let mut out = String::new();
            assert_eq!(col.write_jsonl(keep, &mut out).unwrap(), n);
            assert_eq!(out, expected, "columnar {keep:?}");
        }
        // Empty shard.
        let empty = Dataset::new();
        let row = FrameSlab::from_frame_bytes(&encode_shard_frame(&empty, Codec::Djz)).unwrap();
        let col =
            ColumnarSlab::from_frame_bytes(&encode_columnar_frame(&empty, Codec::Djz)).unwrap();
        let mut out = String::new();
        assert_eq!(row.write_jsonl(None, &mut out).unwrap(), 0);
        assert_eq!(col.write_jsonl(Some(&[]), &mut out).unwrap(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn wrong_mask_length_and_foreign_key_order_are_typed_errors() {
        let ds = rich_shard();
        let row = FrameSlab::from_frame_bytes(&encode_shard_frame(&ds, Codec::None)).unwrap();
        let col = ColumnarSlab::from_frame_bytes(&encode_columnar_frame(&ds, Codec::None)).unwrap();
        let mut out = String::new();
        assert!(row.write_jsonl(Some(&[true]), &mut out).is_err());
        assert!(col.write_jsonl(Some(&[true]), &mut out).is_err());

        // A hand-built row payload whose map keys are not ascending.
        let mut payload = vec![1u8];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(TAG_MAP);
        payload.extend_from_slice(&2u32.to_le_bytes());
        for key in ["b", "a"] {
            payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
            payload.extend_from_slice(key.as_bytes());
            write_value(&mut payload, &Value::Int(1));
        }
        let frame = seal(
            SHARD_FRAME_MAGIC,
            &crate::codec::compress(&payload, Codec::None),
        );
        let slab = FrameSlab::from_frame_bytes(&frame).unwrap();
        let err = slab.write_jsonl(None, &mut out).unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
        // A root that is not a map is the error `decode` gives.
        let mut payload = vec![1u8];
        payload.extend_from_slice(&1u64.to_le_bytes());
        write_value(&mut payload, &Value::Int(7));
        let frame = seal(
            SHARD_FRAME_MAGIC,
            &crate::codec::compress(&payload, Codec::None),
        );
        let slab = FrameSlab::from_frame_bytes(&frame).unwrap();
        assert!(slab.decode().is_err());
        assert!(slab.write_jsonl(None, &mut out).is_err());
    }
}
