//! Columnar shard frames (`DJSC`): decode only the bytes an OP touches.
//!
//! Every spool slot and cache entry is a columnar frame. A row frame
//! (`DJSF`, the `frames` output format) serializes whole samples, so a stage
//! whose OPs read one field would still decode (and re-encode) every
//! metadata column. A columnar frame stores each *top-level column* of the
//! samples' root maps as its own contiguous, individually compressed and
//! checksummed region, addressable from an offset table:
//!
//! ```text
//! payload (behind the [`crate::frame`] envelope, magic `DJSC`; the
//! payload itself is not compressed, its regions are):
//!   version       u8 (= 1)
//!   sample_count  u64 LE
//!   column_count  u32 LE
//!   directory, one entry per column, sorted by name:
//!     name_len  u32 LE, name bytes (UTF-8)
//!     offset    u64 LE   region start, relative to the end of the directory
//!     len       u64 LE   compressed region length
//!     raw_len   u64 LE   decompressed region length
//!     checksum  u64 LE   `dj_hash::checksum64` of the compressed region
//!   regions, concatenated in directory order
//!
//! region (before compression), one entry per sample:
//!   presence  u8 (0 = column absent in this sample, 1 = present)
//!   value     tagged value (same encoding as `serialize`), iff present
//! ```
//!
//! The presence byte distinguishes a *missing* column from an explicit
//! `null`, so columnar↔row round-trips are value-identical: a `frames`
//! output part converted from a spool slot equals a fresh row encode.
//!
//! Two access patterns motivate the format:
//!
//! * **projection** — [`ColumnarSlab::decode_projected`] materializes only
//!   the columns a stage's field footprints name (and
//!   [`ColumnarSlab::read_column`] feeds dedup hash passes a single column's
//!   texts as borrowed `Cow`s without building samples at all);
//! * **passthrough splice** — [`ColumnarSlab::splice`] copies the regions of
//!   untouched columns into the output frame verbatim, compressed bytes and
//!   checksum alike. A sample the stage dropped stays stored: its entries in
//!   the re-encoded columns are absent, and the keep mask the executor keeps
//!   beside the spool skips it. No region the stage did not decode is ever
//!   decompressed.
//!
//! Dropped entries leave the bytes only where the bytes leave the spool:
//! [`ColumnarSlab::filter_frame`] compacts a masked frame for a cache entry
//! by walking entry boundaries, never decoding a value.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use dj_core::{Dataset, DjError, Result, Sample, Value};
use dj_hash::checksum64;

use crate::codec::{compress_into, decompress_into, max_raw_len, Codec, SLACK};
use crate::frame::{envelope, Frame, COLUMNAR_FRAME_MAGIC};
use crate::pool::{BufferPool, Holds, PooledBuf};
use crate::serialize::{
    read_value_at, skip_value_at, take_str, take_u32, take_u64, take_u8, walk_path, write_value,
    COLUMN_DEPTH,
};
use crate::transcode::{check_mask, keeps};

const COLUMNAR_VERSION: u8 = 1;

/// Bytes of the shortest directory entry (an empty name and four words).
const MIN_DIRECTORY_ENTRY: usize = 4 + 4 * 8;

/// Most samples a frame with no column at all may claim. Such a frame —
/// every sample an empty map — is 33 bytes whatever its count, so nothing in
/// it bounds the count; no shard the executor cuts comes near this.
const MAX_COLUMNLESS_SAMPLES: u64 = 1 << 20;

/// Encode one shard as a columnar frame.
pub fn encode_columnar_frame(shard: &Dataset, codec: Codec) -> Vec<u8> {
    encode_into(shard, codec, &BufferPool::default()).into_vec()
}

/// [`encode_columnar_frame`] built in a buffer from `pool`, each column's
/// body written into one reused buffer and compressed straight into the
/// frame.
pub(crate) fn encode_into(shard: &Dataset, codec: Codec, pool: &BufferPool) -> PooledBuf {
    // Column set = union of top-level keys across all samples, sorted.
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for s in shard.iter() {
        if let Value::Map(m) = s.value() {
            names.extend(m.keys().map(String::as_str));
        }
    }
    let mut frame = FrameBuilder::new(pool, shard.len(), names.iter().copied());
    let mut body = pool.take_largest(Holds::Raw);
    for name in &names {
        column_body(&mut body, shard.iter().map(Some), name);
        frame.compress(&body, codec);
    }
    frame.seal()
}

/// Write one column's region before compression into `body`: per stored
/// sample a presence byte and, when present, the tagged value. A `None`
/// sample — one a stage dropped — stores an absent entry.
fn column_body<'s>(
    body: &mut Vec<u8>,
    samples: impl Iterator<Item = Option<&'s Sample>>,
    name: &str,
) {
    body.clear();
    for s in samples {
        match s.and_then(|s| s.value().as_map()).and_then(|m| m.get(name)) {
            Some(v) => {
                body.push(1);
                write_value(body, v);
            }
            None => body.push(0),
        }
    }
}

/// A sealed columnar frame under construction in one pooled buffer: room
/// for the envelope header, then the payload header and the directory with
/// its words zeroed; the regions are appended in directory order — copied,
/// or compressed in place — each patching its directory words, and
/// [`seal`](FrameBuilder::seal) seals the buffer where it is.
struct FrameBuilder {
    out: PooledBuf,
    /// Where each directory entry's four words sit, in directory order.
    words: Vec<usize>,
    /// Where the regions start (directory offsets count from here).
    regions: usize,
    /// Regions appended so far.
    done: usize,
}

impl FrameBuilder {
    /// A frame of `samples` samples whose columns are `names`, in
    /// directory (sorted) order.
    fn new<'n>(
        pool: &BufferPool,
        samples: usize,
        names: impl IntoIterator<Item = &'n str>,
    ) -> FrameBuilder {
        let mut out = pool.take_largest(Holds::Frames);
        out.resize(envelope::HEADER_LEN, 0);
        out.push(COLUMNAR_VERSION);
        out.extend_from_slice(&(samples as u64).to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        let mut words = Vec::new();
        for name in names {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            words.push(out.len());
            out.extend_from_slice(&[0; 4 * 8]);
        }
        let count_at = envelope::HEADER_LEN + 1 + 8;
        out[count_at..count_at + 4].copy_from_slice(&(words.len() as u32).to_le_bytes());
        FrameBuilder {
            regions: out.len(),
            out,
            words,
            done: 0,
        }
    }

    /// Record the region that ends the buffer, from `start`, in the next
    /// directory entry.
    fn close_region(&mut self, start: usize, raw_len: u64, checksum: u64) {
        let len = self.out.len() - start;
        let at = self.words[self.done];
        let words = [(start - self.regions) as u64, len as u64, raw_len, checksum];
        for (k, word) in words.iter().enumerate() {
            self.out[at + 8 * k..at + 8 * (k + 1)].copy_from_slice(&word.to_le_bytes());
        }
        self.done += 1;
    }

    /// Append the next region as another frame stores it: its compressed
    /// bytes, its raw length and its checksum, carried, not recomputed.
    fn copy(&mut self, bytes: &[u8], raw_len: u64, checksum: u64) {
        let start = self.out.len();
        self.out.extend_from_slice(bytes);
        self.close_region(start, raw_len, checksum);
    }

    /// Compress `body` straight into the frame as the next region.
    fn compress(&mut self, body: &[u8], codec: Codec) {
        let start = self.out.len();
        let pool = self.out.pool().clone();
        pool.with_table(|table| compress_into(body, codec, &mut self.out, table));
        let checksum = checksum64(&self.out[start..]);
        self.close_region(start, body.len() as u64, checksum);
    }

    /// The sealed frame, once every column's region is in.
    fn seal(mut self) -> PooledBuf {
        debug_assert_eq!(self.done, self.words.len(), "a region is missing");
        envelope::seal_in_place(COLUMNAR_FRAME_MAGIC, &mut self.out);
        self.out
    }
}

/// Read one entry's presence byte: whether a tagged value follows.
fn take_entry(cur: &mut &[u8], column: &str) -> Result<bool> {
    match take_u8(cur)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DjError::Storage(format!(
            "bad presence byte {other} in column `{column}`"
        ))),
    }
}

/// One column's directory entry.
#[derive(Debug, Clone)]
struct ColumnEntry {
    name: String,
    /// Absolute byte range of the compressed region within the payload.
    start: usize,
    len: usize,
    raw_len: u64,
    checksum: u64,
}

/// A loaded-but-undecoded columnar frame.
///
/// The payload stays in the buffer it was read into; every accessor
/// decompresses and decodes only the regions it is asked for, into scratch
/// from that buffer's pool.
#[derive(Debug)]
pub struct ColumnarSlab {
    /// The payload, from byte `base` on.
    buf: PooledBuf,
    base: usize,
    samples: usize,
    columns: Vec<ColumnEntry>,
}

impl ColumnarSlab {
    /// Parse one columnar frame held fully in memory (envelope + payload,
    /// exactly one frame).
    pub fn from_frame_bytes(frame: &[u8]) -> Result<ColumnarSlab> {
        Ok(Frame::parse(frame)?.0)
    }

    /// The slab of a columnar frame's verified payload, `buf[base..]`.
    /// Every count and length the header claims is checked against the
    /// bytes that are actually there before anything is sized by it.
    pub(crate) fn from_payload(buf: PooledBuf, base: usize) -> Result<ColumnarSlab> {
        let mut cur: &[u8] = &buf[base..];
        let version = take_u8(&mut cur)?;
        if version != COLUMNAR_VERSION {
            return Err(DjError::Storage(format!(
                "unsupported columnar format version {version}"
            )));
        }
        let samples = take_u64(&mut cur)?;
        let count = take_u32(&mut cur)? as usize;
        let mut raw_columns = Vec::with_capacity(count.min(cur.len() / MIN_DIRECTORY_ENTRY));
        for _ in 0..count {
            let name = take_str(&mut cur)?.to_string();
            let offset = take_u64(&mut cur)?;
            let len = take_u64(&mut cur)?;
            let raw_len = take_u64(&mut cur)?;
            let checksum = take_u64(&mut cur)?;
            raw_columns.push((name, offset, len, raw_len, checksum));
        }
        // Regions base = everything after the directory.
        let regions_base = buf.len() - cur.len();
        let regions_len = cur.len() as u64;
        let mut columns = Vec::with_capacity(raw_columns.len());
        for (name, offset, len, raw_len, checksum) in raw_columns {
            let end = offset.checked_add(len).ok_or_else(|| {
                DjError::Storage(format!("columnar region overflow for column `{name}`"))
            })?;
            if end > regions_len {
                return Err(DjError::Storage(format!(
                    "columnar region for column `{name}` out of bounds ({end} > {regions_len})"
                )));
            }
            // Every sample has a presence byte in every region, and a
            // region cannot decompress to more than its codec allows.
            if raw_len > max_raw_len(len as usize) || samples > raw_len {
                return Err(DjError::Storage(format!(
                    "implausible sizes for column `{name}`: {samples} samples, \
                     {len} bytes holding {raw_len}"
                )));
            }
            columns.push(ColumnEntry {
                name,
                start: regions_base + offset as usize,
                len: len as usize,
                raw_len,
                checksum,
            });
        }
        // Only a frame of column-less samples has a count no region bounds.
        if columns.is_empty() && samples > MAX_COLUMNLESS_SAMPLES {
            return Err(DjError::Storage(format!(
                "implausible sample count {samples} in a frame without columns"
            )));
        }
        Ok(ColumnarSlab {
            buf,
            base,
            samples: samples as usize,
            columns,
        })
    }

    /// Sample count, from the payload header.
    pub fn sample_count(&self) -> usize {
        self.samples
    }

    /// Payload size in bytes (the slab's memory footprint).
    pub fn payload_len(&self) -> usize {
        self.buf.len() - self.base
    }

    /// Column names in directory (sorted) order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Decompressed size of one column's region, if present.
    pub fn column_raw_len(&self, name: &str) -> Option<u64> {
        self.entry(name).map(|c| c.raw_len)
    }

    /// Total decompressed bytes across all column regions.
    pub fn total_raw_len(&self) -> u64 {
        self.columns.iter().map(|c| c.raw_len).sum()
    }

    fn entry(&self, name: &str) -> Option<&ColumnEntry> {
        self.columns.iter().find(|c| c.name == name)
    }

    fn region_bytes(&self, c: &ColumnEntry) -> Result<&[u8]> {
        let region = &self.buf[c.start..c.start + c.len];
        if checksum64(region) != c.checksum {
            return Err(DjError::Storage(format!(
                "columnar region checksum mismatch for column `{}`",
                c.name
            )));
        }
        Ok(region)
    }

    /// One region decompressed, checksum- and size-verified, into a buffer
    /// from this frame's pool.
    fn region_raw(&self, c: &ColumnEntry) -> Result<PooledBuf> {
        let mut data = self.buf.pool().take(Holds::Raw, c.raw_len as usize + SLACK);
        decompress_into(self.region_bytes(c)?, &mut data)?;
        if data.len() as u64 != c.raw_len {
            return Err(DjError::Storage(format!(
                "columnar region size mismatch for column `{}`: got {}, expected {}",
                c.name,
                data.len(),
                c.raw_len
            )));
        }
        Ok(data)
    }

    /// Decompress one column's region (checksum-verified), or `Ok(None)`
    /// when the frame has no such column.
    pub fn read_column(&self, name: &str) -> Result<Option<ColumnRegion>> {
        let Some(c) = self.entry(name) else {
            return Ok(None);
        };
        let data = self.region_raw(c)?;
        Ok(Some(ColumnRegion {
            data,
            samples: self.samples,
        }))
    }

    /// Materialize samples from the named columns only (`None` = all).
    ///
    /// Returns the dataset and `bytes_decoded` — the decompressed bytes of
    /// every region that had to be decoded to build it. Columns requested
    /// but absent from the frame are simply missing from the samples, and
    /// frame columns not requested are skipped entirely (their regions are
    /// never decompressed).
    pub fn decode_projected(&self, cols: Option<&BTreeSet<String>>) -> Result<(Dataset, u64)> {
        self.decode_kept(cols, None)
    }

    /// [`decode_projected`](ColumnarSlab::decode_projected) of the samples
    /// `keep` keeps (all of them without a mask): a masked-out entry is
    /// stepped over, never built.
    pub fn decode_kept(
        &self,
        cols: Option<&BTreeSet<String>>,
        keep: Option<&[bool]>,
    ) -> Result<(Dataset, u64)> {
        check_mask(keep, self.samples)?;
        let kept = keep.map_or(self.samples, |k| k.iter().filter(|k| **k).count());
        let mut maps: Vec<BTreeMap<String, Value>> = vec![BTreeMap::new(); kept];
        let mut bytes_decoded = 0u64;
        for c in &self.columns {
            if cols.is_some_and(|wanted| !wanted.contains(&c.name)) {
                continue;
            }
            let region = self.region_raw(c)?;
            bytes_decoded += c.raw_len;
            let mut cur: &[u8] = &region;
            let mut maps = maps.iter_mut();
            for i in 0..self.samples {
                let present = take_entry(&mut cur, &c.name)?;
                if !keeps(keep, i) {
                    if present {
                        skip_value_at(&mut cur, COLUMN_DEPTH)?;
                    }
                } else if let (Some(map), true) = (maps.next(), present) {
                    map.insert(c.name.clone(), read_value_at(&mut cur, COLUMN_DEPTH)?);
                }
            }
            if !cur.is_empty() {
                return Err(DjError::Storage(format!(
                    "trailing bytes after column `{}`",
                    c.name
                )));
            }
        }
        let samples = maps
            .into_iter()
            .map(|m| Sample::from_value(Value::Map(m)))
            .collect::<Result<Vec<_>>>()?;
        Ok((Dataset::from_samples(samples), bytes_decoded))
    }

    /// Every region decompressed (checksum- and size-verified), with its
    /// column name, in directory order — the transcoder's input.
    pub(crate) fn raw_regions(&self) -> Result<Vec<(&str, PooledBuf)>> {
        self.columns
            .iter()
            .map(|c| Ok((c.name.as_str(), self.region_raw(c)?)))
            .collect()
    }

    /// Full decode into an owned dataset.
    pub fn decode(&self) -> Result<Dataset> {
        Ok(self.decode_projected(None)?.0)
    }

    /// The output frame of a stage that ran on this frame: `decoded`
    /// columns re-encoded from `processed`, every other column's region
    /// copied verbatim from this frame.
    ///
    /// * `processed` holds the *kept* samples (`processed.len()` must equal
    ///   the number of `true`s in `keep`) carrying only decoded/written
    ///   columns;
    /// * `decoded` names the columns that were materialized for the stage
    ///   (`None` = everything was decoded, no passthrough);
    /// * `keep[i]` says whether input sample `i` survived the stage.
    ///
    /// The output stores every sample this frame stores: a dropped one has
    /// an absent entry in each re-encoded column and its old entries in the
    /// copied ones, so `keep` must travel with the frame as its mask
    /// ([`filter_frame`](ColumnarSlab::filter_frame) compacts it). No region
    /// is decompressed, and the new frame is built in a buffer from this
    /// frame's pool. Returns it plus `bytes_passthrough`: the decompressed
    /// size of the regions copied. A processed sample carrying a column
    /// that was *not* decoded is a field-footprint violation and errors —
    /// silent column collisions must never reach disk.
    pub fn splice(
        &self,
        processed: &Dataset,
        decoded: Option<&BTreeSet<String>>,
        keep: &[bool],
        codec: Codec,
    ) -> Result<(PooledBuf, u64)> {
        check_mask(Some(keep), self.samples)?;
        let kept = keep.iter().filter(|k| **k).count();
        if processed.len() != kept {
            return Err(DjError::Storage(format!(
                "splice got {} processed samples, keep mask kept {kept}",
                processed.len()
            )));
        }

        let passthrough: Vec<&ColumnEntry> = match decoded {
            None => Vec::new(),
            Some(set) => self
                .columns
                .iter()
                .filter(|c| !set.contains(&c.name))
                .collect(),
        };

        // Columns re-encoded from the processed samples.
        let mut encoded_names: BTreeSet<&str> = BTreeSet::new();
        for s in processed.iter() {
            if let Value::Map(m) = s.value() {
                encoded_names.extend(m.keys().map(String::as_str));
            }
        }
        for c in &passthrough {
            if encoded_names.contains(c.name.as_str()) {
                return Err(DjError::Storage(format!(
                    "field-footprint violation: stage wrote undeclared column `{}`",
                    c.name
                )));
            }
        }

        let bytes_passthrough = passthrough.iter().map(|c| c.raw_len).sum();
        // Directory order is sorted by name: `None` marks a column to
        // re-encode.
        let mut columns: Vec<(&str, Option<&ColumnEntry>)> = passthrough
            .into_iter()
            .map(|c| (c.name.as_str(), Some(c)))
            .chain(encoded_names.into_iter().map(|name| (name, None)))
            .collect();
        columns.sort_by_key(|(name, _)| *name);
        let pool = self.buf.pool();
        let mut frame = FrameBuilder::new(pool, self.samples, columns.iter().map(|(n, _)| *n));
        let mut body = None;
        for (name, entry) in columns {
            match entry {
                Some(c) => frame.copy(self.region_bytes(c)?, c.raw_len, c.checksum),
                None => {
                    let body = body.get_or_insert_with(|| pool.take_largest(Holds::Raw));
                    let mut samples = processed.iter();
                    let stored = keep.iter().map(|k| if *k { samples.next() } else { None });
                    column_body(body, stored, name);
                    frame.compress(body, codec);
                }
            }
        }
        Ok((frame.seal(), bytes_passthrough))
    }

    /// This frame with only the samples `keep` keeps, never materializing a
    /// `Value`: each region's kept entries (presence byte and value, found
    /// by skipping) are copied and recompressed — verbatim regions when
    /// nothing is dropped. This is where a masked spool's dead entries leave
    /// the bytes, as the spool is saved into a cache entry.
    pub fn filter_frame(&self, keep: &[bool], codec: Codec) -> Result<PooledBuf> {
        check_mask(Some(keep), self.samples)?;
        let kept = keep.iter().filter(|k| **k).count();
        let pool = self.buf.pool();
        let names = self.columns.iter().map(|c| c.name.as_str());
        let mut frame = FrameBuilder::new(pool, kept, names);
        let mut body = pool.take_largest(Holds::Raw);
        for c in &self.columns {
            if kept == self.samples {
                frame.copy(self.region_bytes(c)?, c.raw_len, c.checksum);
                continue;
            }
            let region = self.region_raw(c)?;
            body.clear();
            let mut cur: &[u8] = &region;
            for keep_it in keep {
                let entry = cur;
                if take_entry(&mut cur, &c.name)? {
                    skip_value_at(&mut cur, COLUMN_DEPTH)?;
                }
                if *keep_it {
                    body.extend_from_slice(&entry[..entry.len() - cur.len()]);
                }
            }
            if !cur.is_empty() {
                return Err(DjError::Storage(format!(
                    "trailing bytes after column `{}`",
                    c.name
                )));
            }
            frame.compress(&body, codec);
        }
        Ok(frame.seal())
    }
}

/// One decompressed column region, ready for zero-copy text borrowing.
#[derive(Debug)]
pub struct ColumnRegion {
    data: PooledBuf,
    samples: usize,
}

impl ColumnRegion {
    /// Decompressed size of this region.
    pub fn raw_len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Borrow the text at dotted path `rest` *within* this column for every
    /// sample (`""` = the column value itself). Semantics mirror
    /// [`dj_core::Sample::text_at`]: a missing path, an absent column entry
    /// or a non-string value yields `""`.
    pub fn texts_at(&self, rest: &str) -> Result<Vec<Cow<'_, str>>> {
        let segments: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split('.').collect()
        };
        let mut cur: &[u8] = &self.data;
        let mut out = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            out.push(match take_entry(&mut cur, "")? {
                true => walk_path(&mut cur, &segments)?,
                false => Cow::Borrowed(""),
            });
        }
        if !cur.is_empty() {
            return Err(DjError::Storage("trailing bytes after column".into()));
        }
        Ok(out)
    }
}

/// Split a dotted field path into (top-level column, rest-of-path) for
/// column-region access: `"meta.lang"` → `("meta", "lang")`, `"text"` →
/// `("text", "")`.
pub fn split_column_path(field: &str) -> (&str, &str) {
    match field.split_once('.') {
        Some((head, rest)) => (head, rest),
        None => (field, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decompress;

    fn rich_shard() -> Dataset {
        let mut ds = Dataset::new();
        let mut a = Sample::from_text("hello\nworld \"quoted\"");
        a.set_meta("language", "EN");
        a.set_meta("stars", 42i64);
        a.set_meta("tags", Value::from(vec!["a", "b"]));
        a.set_stat("word_count", 2.0);
        ds.push(a);
        ds.push(Sample::from_text("中文文本 🦀"));
        // A sample with no text at all (missing column) and one with an
        // explicit null — the presence byte must keep them distinct.
        ds.push(Sample::new());
        let mut n = Sample::new();
        n.value_mut().set_path("text", Value::Null).unwrap();
        n.value_mut()
            .set_path(
                "extra.nested.deep",
                Value::from(vec![Value::Int(1), Value::Null]),
            )
            .unwrap();
        ds.push(n);
        ds
    }

    #[test]
    fn roundtrip_all_codecs() {
        for codec in [Codec::None, Codec::Djz] {
            for ds in [Dataset::new(), rich_shard()] {
                let frame = encode_columnar_frame(&ds, codec);
                let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
                assert_eq!(slab.sample_count(), ds.len());
                assert_eq!(slab.decode().unwrap(), ds, "codec {codec:?}");
            }
        }
    }

    #[test]
    fn projection_decodes_only_named_columns() {
        let ds = rich_shard();
        let frame = encode_columnar_frame(&ds, Codec::Djz);
        let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
        assert_eq!(slab.column_names(), vec!["extra", "meta", "stats", "text"]);

        let cols: BTreeSet<String> = ["text".to_string()].into();
        let (projected, bytes) = slab.decode_projected(Some(&cols)).unwrap();
        assert_eq!(bytes, slab.column_raw_len("text").unwrap());
        assert!(bytes < slab.total_raw_len());
        assert_eq!(projected.len(), ds.len());
        for (p, full) in projected.iter().zip(ds.iter()) {
            assert_eq!(p.text(), full.text());
            // Only the text column came along.
            if let Value::Map(m) = p.value() {
                assert!(!m.contains_key("meta"));
                assert!(!m.contains_key("stats"));
            }
        }
        // Full decode accounts for every region.
        let (_, all_bytes) = slab.decode_projected(None).unwrap();
        assert_eq!(all_bytes, slab.total_raw_len());
    }

    #[test]
    fn column_texts_match_text_at() {
        let ds = rich_shard();
        let frame = encode_columnar_frame(&ds, Codec::Djz);
        let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
        for field in ["text", "meta.language", "meta.missing", "extra.nested.deep"] {
            let (col, rest) = split_column_path(field);
            let texts: Vec<String> = match slab.read_column(col).unwrap() {
                Some(region) => region
                    .texts_at(rest)
                    .unwrap()
                    .iter()
                    .map(|c| c.to_string())
                    .collect(),
                None => vec![String::new(); ds.len()],
            };
            let expected: Vec<&str> = ds.iter().map(|s| s.text_at(field)).collect();
            assert_eq!(texts, expected, "field {field}");
        }
        assert!(slab.read_column("no_such_column").unwrap().is_none());
    }

    #[test]
    fn splice_passes_untouched_columns_verbatim() {
        let ds = rich_shard();
        let frame = encode_columnar_frame(&ds, Codec::Djz);
        let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();

        // Decode only `text`, uppercase it, keep all samples.
        let cols: BTreeSet<String> = ["text".to_string()].into();
        let (mut projected, _) = slab.decode_projected(Some(&cols)).unwrap();
        for s in projected.samples_mut() {
            let up = s.text().to_uppercase();
            if !up.is_empty() {
                s.set_text(up);
            }
        }
        let keep = vec![true; ds.len()];
        let (out_frame, passthrough) = slab
            .splice(&projected, Some(&cols), &keep, Codec::Djz)
            .unwrap();
        // Everything except the text region crossed without decode.
        assert_eq!(
            passthrough,
            slab.total_raw_len() - slab.column_raw_len("text").unwrap()
        );

        let out = ColumnarSlab::from_frame_bytes(&out_frame).unwrap();
        let decoded = out.decode().unwrap();
        assert_eq!(decoded.len(), ds.len());
        for (got, orig) in decoded.iter().zip(ds.iter()) {
            let up = orig.text().to_uppercase();
            if !up.is_empty() {
                assert_eq!(got.text(), up);
            }
            // Metadata survived byte-for-byte.
            assert_eq!(got.value().get_path("meta"), orig.value().get_path("meta"));
            assert_eq!(
                got.value().get_path("extra"),
                orig.value().get_path("extra")
            );
        }
    }

    fn masked(ds: &Dataset, keep: &[bool]) -> Dataset {
        let mut out = ds.clone();
        out.retain_mask(keep);
        out
    }

    /// What a splice that drops samples wrote before dropped samples stayed
    /// stored: every passthrough region decompressed, its kept entries
    /// copied and recompressed, the re-encoded columns holding the kept
    /// samples only. Cache entries and `frames` parts were made of these
    /// bytes, so a stored splice compacted by `filter_frame` must equal
    /// them.
    fn compacted_splice(
        slab: &ColumnarSlab,
        processed: &Dataset,
        decoded: &BTreeSet<String>,
        keep: &[bool],
    ) -> Vec<u8> {
        let mut bodies: Vec<(String, Vec<u8>)> = Vec::new();
        for c in slab.columns.iter().filter(|c| !decoded.contains(&c.name)) {
            let region = decompress(slab.region_bytes(c).unwrap()).unwrap();
            let mut body = Vec::new();
            let mut cur: &[u8] = &region;
            for keep_it in keep {
                let entry = cur;
                if take_entry(&mut cur, &c.name).unwrap() {
                    skip_value_at(&mut cur, COLUMN_DEPTH).unwrap();
                }
                if *keep_it {
                    body.extend_from_slice(&entry[..entry.len() - cur.len()]);
                }
            }
            bodies.push((c.name.clone(), body));
        }
        let mut names = BTreeSet::new();
        for s in processed.iter() {
            names.extend(s.value().as_map().unwrap().keys().cloned());
        }
        for name in names {
            let mut body = Vec::new();
            column_body(&mut body, processed.iter().map(Some), &name);
            bodies.push((name, body));
        }
        bodies.sort();
        let names = bodies.iter().map(|(name, _)| name.as_str());
        let mut frame = FrameBuilder::new(&BufferPool::default(), processed.len(), names);
        for (_, body) in &bodies {
            frame.compress(body, Codec::Djz);
        }
        frame.seal().into_vec()
    }

    #[test]
    fn a_splice_that_drops_samples_copies_every_region_and_compacts_as_before() {
        let mut ds = rich_shard();
        ds.extend(Dataset::from_texts((0..12).map(|i| format!("doc {i}"))));
        for (i, s) in ds.samples_mut().iter_mut().enumerate().skip(4) {
            s.set_meta("n", i as i64);
        }
        let frame = encode_columnar_frame(&ds, Codec::Djz);
        let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
        // Sample 0 is the only one with `stats`; dropping it leaves that
        // column with no kept entry at all.
        let keep: Vec<bool> = (0..ds.len()).map(|i| i % 3 == 1 || i == 2).collect();
        let cols: BTreeSet<String> = ["text".to_string()].into();
        let (mut processed, _) = slab.decode_kept(Some(&cols), Some(&keep)).unwrap();
        for s in processed.samples_mut() {
            let up = s.text().to_uppercase();
            if !up.is_empty() {
                s.set_text(up);
            }
        }

        let (stored, passthrough) = slab
            .splice(&processed, Some(&cols), &keep, Codec::Djz)
            .unwrap();
        let out = ColumnarSlab::from_frame_bytes(&stored).unwrap();
        // Every stored sample is still stored.
        assert_eq!(out.sample_count(), ds.len());
        // Every passthrough region is the input's, bytes and directory entry.
        assert_eq!(out.column_names(), slab.column_names());
        let copied: Vec<&ColumnEntry> = slab.columns.iter().filter(|c| c.name != "text").collect();
        assert_eq!(passthrough, copied.iter().map(|c| c.raw_len).sum::<u64>());
        for c in copied {
            let o = out.entry(&c.name).unwrap();
            assert_eq!(out.region_bytes(o).unwrap(), slab.region_bytes(c).unwrap());
            assert_eq!((o.raw_len, o.checksum), (c.raw_len, c.checksum));
        }
        // Read through the mask, the frame is the stage's output.
        let mut expected = masked(&ds, &keep);
        for (s, p) in expected.samples_mut().iter_mut().zip(processed.iter()) {
            if let Some(text) = p.value().get_path("text") {
                s.value_mut().set_path("text", text.clone()).unwrap();
            }
        }
        assert_eq!(out.decode_kept(None, Some(&keep)).unwrap().0, expected);
        // Compacted, it is byte for byte what the compacting splice wrote.
        let compacted = out.filter_frame(&keep, Codec::Djz).unwrap();
        assert_eq!(compacted, compacted_splice(&slab, &processed, &cols, &keep));
        // With nothing dropped there is nothing to compact.
        let all = vec![true; ds.len()];
        assert_eq!(out.filter_frame(&all, Codec::Djz).unwrap(), stored);
    }

    #[test]
    fn filter_frame_masks_without_decoding() {
        let ds = rich_shard();
        let frame = encode_columnar_frame(&ds, Codec::Djz);
        let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
        let keep = vec![false, true, true, false];
        let out_frame = slab.filter_frame(&keep, Codec::Djz).unwrap();
        let out = ColumnarSlab::from_frame_bytes(&out_frame)
            .unwrap()
            .decode()
            .unwrap();
        assert_eq!(out, masked(&ds, &keep));
        assert!(slab.filter_frame(&keep[1..], Codec::Djz).is_err());
    }

    #[test]
    fn footprint_violation_is_rejected() {
        let ds = rich_shard();
        let frame = encode_columnar_frame(&ds, Codec::None);
        let slab = ColumnarSlab::from_frame_bytes(&frame).unwrap();
        // Stage claimed to decode only `text` but wrote `meta`.
        let cols: BTreeSet<String> = ["text".to_string()].into();
        let mut bad = Sample::from_text("x");
        bad.set_meta("smuggled", 1i64);
        let processed = Dataset::from_samples(vec![bad]);
        let keep = vec![true, false, false, false];
        let err = slab
            .splice(&processed, Some(&cols), &keep, Codec::None)
            .unwrap_err();
        assert!(err.to_string().contains("footprint"), "{err}");
    }

    #[test]
    fn region_corruption_behind_a_valid_envelope_is_detected() {
        // Flip a region byte but re-seal, so only the per-region checksum
        // can catch it (the envelope's own checks are `frame`'s business).
        let ds = rich_shard();
        let frame = encode_columnar_frame(&ds, Codec::Djz);
        let (magic, payload) = envelope::open_one(&frame).unwrap();
        let mut payload = payload.to_vec();
        let last = payload.len() - 1;
        payload[last] ^= 0x01;
        let slab = ColumnarSlab::from_frame_bytes(&envelope::seal(&magic, &payload)).unwrap();
        assert!(slab.decode().is_err());
        // A columnar slab is only ever built from a columnar frame.
        let row = crate::encode_shard_frame(&ds, Codec::Djz);
        assert!(ColumnarSlab::from_frame_bytes(&row).is_err());
    }

    #[test]
    fn split_column_path_examples() {
        assert_eq!(split_column_path("text"), ("text", ""));
        assert_eq!(split_column_path("meta.lang"), ("meta", "lang"));
        assert_eq!(split_column_path("a.b.c"), ("a", "b.c"));
    }
}
