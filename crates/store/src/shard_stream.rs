//! Streaming shard frames: the on-disk format of the out-of-core executor.
//!
//! A *shard frame* wraps one serialized (and codec-compressed) shard so it
//! can be appended to a byte stream and read back with integrity checking:
//!
//! ```text
//! ┌──────────┬──────────────┬──────────────┬─────────────────────┐
//! │ "DJSF"   │ payload_len  │ checksum     │ payload             │
//! │ 4 bytes  │ u64 LE       │ u64 LE (FNV) │ compress(to_bytes)  │
//! └──────────┴──────────────┴──────────────┴─────────────────────┘
//! ```
//!
//! The length prefix makes frames skippable, the checksum detects bit rot
//! and torn writes, and the payload reuses the self-describing [`Codec`]
//! frame so a stream can mix codecs. Truncated or corrupted frames are
//! reported as clean [`DjError::Storage`] errors — never a panic, never
//! silently short data.
//!
//! Two consumers build on the format:
//!
//! * [`ShardStreamWriter`]/[`ShardStreamReader`] — many frames appended to
//!   one stream (used by the cache manager to persist spilled stages
//!   without materializing them);
//! * [`ShardSpool`] — a directory with one frame file per shard, the
//!   disk backing of the executor's spill path. Files are written to a
//!   temporary name and atomically renamed, so a reader (or a restarted
//!   run) never observes a partial frame. The spool removes its directory
//!   on drop.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dj_core::{Dataset, DjError, Result, Sample, ShardSink, ShardSource, Value};
use dj_hash::fnv1a;

use crate::codec::{compress, decompress, Codec};
use crate::columnar::{
    decode_columnar_payload, encode_columnar_frame, ColumnarSlab, COLUMNAR_FRAME_MAGIC,
};
use crate::serialize::{
    from_bytes, le_u64, read_header, read_value_slice, sample_count, skip_value, texts_at,
    to_bytes, values_from_bytes, values_to_bytes,
};
use crate::transcode::{check_mask, keeps};

/// Magic prefix of every shard frame (and of multi-frame stream files).
pub const SHARD_FRAME_MAGIC: &[u8; 4] = b"DJSF";

/// Magic prefix of fingerprint sidecar files (`shard-N.fpr`).
pub const FINGERPRINT_MAGIC: &[u8; 4] = b"DJFP";

pub(crate) const HEADER_LEN: usize = 4 + 8 + 8;

/// Refuse to allocate for frames claiming more than this (corrupt length
/// prefixes must not turn into huge allocations).
pub(crate) const MAX_FRAME_PAYLOAD: u64 = 1 << 40;

/// Wrap `payload` in the envelope every frame and sidecar shares: magic,
/// payload length, FNV-1a checksum, payload.
pub(crate) fn frame_bytes(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode one shard into a self-contained frame.
pub fn encode_shard_frame(shard: &Dataset, codec: Codec) -> Vec<u8> {
    frame_bytes(SHARD_FRAME_MAGIC, &compress(&to_bytes(shard), codec))
}

/// Append one shard frame to a writer; returns the bytes written.
pub fn write_shard_frame<W: Write>(w: &mut W, shard: &Dataset, codec: Codec) -> Result<u64> {
    let frame = encode_shard_frame(shard, codec);
    w.write_all(&frame)?;
    Ok(frame.len() as u64)
}

/// Read the next shard frame from a reader — row (`DJSF`) or columnar
/// (`DJSC`), sniffed from the magic; both share the same envelope shape.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary). A frame cut off mid-header or mid-payload, a bad magic, an
/// implausible length, or a checksum mismatch all yield a descriptive
/// [`DjError::Storage`].
pub fn read_shard_frame<R: Read>(r: &mut R) -> Result<Option<Dataset>> {
    let mut header = [0u8; HEADER_LEN];
    let got = read_up_to(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < HEADER_LEN {
        return Err(DjError::Storage(format!(
            "truncated shard frame header ({got} of {HEADER_LEN} bytes)"
        )));
    }
    let columnar = if &header[..4] == SHARD_FRAME_MAGIC {
        false
    } else if &header[..4] == COLUMNAR_FRAME_MAGIC {
        true
    } else {
        return Err(DjError::Storage("bad shard frame magic".into()));
    };
    let len = le_u64(&header[4..12]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(DjError::Storage(format!(
            "implausible shard frame length {len}"
        )));
    }
    let checksum = le_u64(&header[12..20]);
    let mut payload = vec![0u8; len as usize];
    let got = read_up_to(r, &mut payload)?;
    if got < payload.len() {
        return Err(DjError::Storage(format!(
            "truncated shard frame payload ({got} of {len} bytes)"
        )));
    }
    if fnv1a(&payload) != checksum {
        return Err(DjError::Storage(
            "shard frame checksum mismatch (corrupted spill data)".into(),
        ));
    }
    if columnar {
        decode_columnar_payload(&payload).map(Some)
    } else {
        from_bytes(&decompress(&payload)?).map(Some)
    }
}

/// Fill `buf` as far as the reader allows; returns bytes read (< `buf.len()`
/// only at end-of-stream).
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

/// Sequentially append shard frames to any writer.
pub struct ShardStreamWriter<W: Write> {
    inner: W,
    codec: Codec,
    frames: u64,
    bytes: u64,
}

impl<W: Write> ShardStreamWriter<W> {
    pub fn new(inner: W, codec: Codec) -> Self {
        ShardStreamWriter {
            inner,
            codec,
            frames: 0,
            bytes: 0,
        }
    }

    pub fn write(&mut self, shard: &Dataset) -> Result<()> {
        self.bytes += write_shard_frame(&mut self.inner, shard, self.codec)?;
        self.frames += 1;
        Ok(())
    }

    pub fn frames(&self) -> u64 {
        self.frames
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flush and hand back the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Sequentially read shard frames from any reader.
pub struct ShardStreamReader<R: Read> {
    inner: R,
}

impl<R: Read> ShardStreamReader<R> {
    pub fn new(inner: R) -> Self {
        ShardStreamReader { inner }
    }

    /// The next shard, or `None` at a clean end-of-stream.
    pub fn next_shard(&mut self) -> Result<Option<Dataset>> {
        read_shard_frame(&mut self.inner)
    }
}

/// Read a whole multi-frame stream into one dataset (frames concatenate in
/// order, mirroring `Dataset::from_shards`).
pub fn read_shard_stream<R: Read>(r: R) -> Result<Dataset> {
    let mut reader = ShardStreamReader::new(r);
    let mut out = Dataset::new();
    while let Some(shard) = reader.next_shard()? {
        out.extend(shard);
    }
    Ok(out)
}

/// Count the frames in a multi-frame stream by walking headers and seeking
/// over payloads — no payload is read or decoded. A final frame whose
/// payload was cut off is still counted; the decode pass reports the
/// truncation when it reaches it.
pub fn count_frames<R: Read + std::io::Seek>(r: &mut R) -> Result<u64> {
    let mut count = 0u64;
    loop {
        let mut header = [0u8; HEADER_LEN];
        let got = read_up_to(r, &mut header)?;
        if got == 0 {
            return Ok(count);
        }
        if got < HEADER_LEN {
            return Err(DjError::Storage(format!(
                "truncated shard frame header ({got} of {HEADER_LEN} bytes)"
            )));
        }
        if &header[..4] != SHARD_FRAME_MAGIC && &header[..4] != COLUMNAR_FRAME_MAGIC {
            return Err(DjError::Storage("bad shard frame magic".into()));
        }
        let len = le_u64(&header[4..12]);
        if len > MAX_FRAME_PAYLOAD {
            return Err(DjError::Storage(format!(
                "implausible shard frame length {len}"
            )));
        }
        r.seek(std::io::SeekFrom::Current(len as i64))?;
        count += 1;
    }
}

/// A loaded-but-undecoded shard frame: the zero-copy spool read path.
///
/// [`FrameSlab::load`] reads a slot file once, verifies its checksum, and
/// decompresses into a single contiguous payload slab. [`FrameSlab::texts_at`]
/// then borrows `Cow<'_, str>` text slices straight out of that slab
/// without constructing `Sample`s — so a dedup hash pass over a spilled
/// shard touches each text byte once and never copies strings the ops
/// won't mutate.
#[derive(Debug)]
pub struct FrameSlab {
    payload: Vec<u8>,
}

impl FrameSlab {
    /// Parse one frame held fully in memory. Rejects trailing bytes —
    /// a slab is exactly one frame (the spool slot-file invariant).
    pub fn from_frame_bytes(frame: &[u8]) -> Result<FrameSlab> {
        if frame.len() < HEADER_LEN {
            return Err(DjError::Storage(format!(
                "truncated shard frame header ({} of {HEADER_LEN} bytes)",
                frame.len()
            )));
        }
        if &frame[..4] != SHARD_FRAME_MAGIC {
            return Err(DjError::Storage("bad shard frame magic".into()));
        }
        let len = le_u64(&frame[4..12]);
        if len > MAX_FRAME_PAYLOAD {
            return Err(DjError::Storage(format!(
                "implausible shard frame length {len}"
            )));
        }
        let checksum = le_u64(&frame[12..20]);
        let body = &frame[HEADER_LEN..];
        if (body.len() as u64) < len {
            return Err(DjError::Storage(format!(
                "truncated shard frame payload ({} of {len} bytes)",
                body.len()
            )));
        }
        if (body.len() as u64) > len {
            return Err(DjError::Storage("trailing bytes after shard frame".into()));
        }
        if fnv1a(body) != checksum {
            return Err(DjError::Storage(
                "shard frame checksum mismatch (corrupted spill data)".into(),
            ));
        }
        Ok(FrameSlab {
            payload: decompress(body)?,
        })
    }

    /// Load a single-frame file (a spool slot) into a slab.
    pub fn load(path: impl AsRef<Path>) -> Result<FrameSlab> {
        let path = path.as_ref();
        let mut bytes = fs::read(path)
            .map_err(|e| DjError::Storage(format!("shard frame missing at {path:?}: {e}")))?;
        dj_core::faults::corrupt("store.frame.read", &mut bytes)?;
        FrameSlab::from_frame_bytes(&bytes)
    }

    /// Decompressed payload size in bytes (the slab's memory footprint).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Sample count, read from the payload header without decoding.
    pub fn sample_count(&self) -> Result<usize> {
        sample_count(&self.payload)
    }

    /// Borrow the text at dotted path `field` for every sample.
    pub fn texts_at(&self, field: &str) -> Result<Vec<std::borrow::Cow<'_, str>>> {
        texts_at(&self.payload, field)
    }

    /// Full decode into an owned dataset (the copying fallback).
    pub fn decode(&self) -> Result<Dataset> {
        self.decode_kept(None)
    }

    /// Decode the samples `keep` keeps (all of them without a mask); a
    /// masked-out sample is stepped over, never built.
    pub fn decode_kept(&self, keep: Option<&[bool]>) -> Result<Dataset> {
        let mut samples = Vec::new();
        self.walk(keep, |cur| {
            samples.push(Sample::from_value(read_value_slice(cur)?)?);
            Ok(())
        })?;
        Ok(Dataset::from_samples(samples))
    }

    /// Re-encode this frame with only the samples `keep` keeps, copying
    /// their serialized byte ranges — the row twin of
    /// [`ColumnarSlab::filter_frame`]; no value is decoded. The result
    /// equals `encode_shard_frame` of the decoded-then-masked shard.
    pub fn filter_frame(&self, keep: &[bool], codec: Codec) -> Result<Vec<u8>> {
        let kept = keep.iter().filter(|k| **k).count();
        let mut body = Vec::with_capacity(self.payload.len());
        body.extend_from_slice(&self.payload[..1]);
        body.extend_from_slice(&(kept as u64).to_le_bytes());
        self.walk(Some(keep), |cur| {
            let entry = *cur;
            skip_value(cur)?;
            body.extend_from_slice(&entry[..entry.len() - cur.len()]);
            Ok(())
        })?;
        Ok(frame_bytes(SHARD_FRAME_MAGIC, &compress(&body, codec)))
    }

    /// Visit every kept sample's serialized value with a cursor positioned
    /// at it (`visit` must consume exactly that value); masked-out samples
    /// are skipped.
    pub(crate) fn walk(
        &self,
        keep: Option<&[bool]>,
        mut visit: impl FnMut(&mut &[u8]) -> Result<()>,
    ) -> Result<()> {
        let (samples, mut cur) = read_header(&self.payload, "dataset")?;
        check_mask(keep, samples)?;
        for i in 0..samples {
            if keeps(keep, i) {
                visit(&mut cur)?;
            } else {
                skip_value(&mut cur)?;
            }
        }
        if !cur.is_empty() {
            return Err(DjError::Storage("trailing bytes after dataset".into()));
        }
        Ok(())
    }
}

/// A directory of shard frame files: the disk backing of spilled stages.
///
/// Slot `i` lives in `shard-i.djs`, written atomically (temp file + rename)
/// so crashes and concurrent readers never see partial frames. Distinct
/// slots may be written concurrently. The directory and its contents are
/// removed when the spool drops.
pub struct ShardSpool {
    dir: PathBuf,
    codec: Codec,
    /// Write shards as columnar (`DJSC`) frames instead of row frames.
    /// Reads sniff the per-file magic either way, so a resumed or
    /// rehydrated spool can mix formats.
    columnar: bool,
    /// Sample count per written slot (`None` until stored) — the shard
    /// layout metadata the dedup barrier needs to slice its dataset-level
    /// mask back into shards. Grows on demand so streaming ingest can
    /// append slots before the total shard count is known.
    lens: Mutex<Vec<Option<usize>>>,
}

impl ShardSpool {
    /// Create a spool with `slots` shard slots rooted at `dir` (created,
    /// including parents, if missing). Writing past `slots` grows the
    /// spool — pass 0 for a stream of unknown length.
    pub fn create(dir: impl Into<PathBuf>, slots: usize, codec: Codec) -> Result<ShardSpool> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ShardSpool {
            dir,
            codec,
            columnar: false,
            lens: Mutex::new(vec![None; slots]),
        })
    }

    /// Like [`create`](ShardSpool::create), but shards written through
    /// [`write_shard`](ShardSpool::write_shard) are stored as columnar
    /// `DJSC` frames, enabling projection ([`read_columnar_slab`]
    /// (ShardSpool::read_columnar_slab)) and byte-for-byte column splicing
    /// ([`write_frame_bytes`](ShardSpool::write_frame_bytes)).
    pub fn create_columnar(
        dir: impl Into<PathBuf>,
        slots: usize,
        codec: Codec,
    ) -> Result<ShardSpool> {
        let mut spool = ShardSpool::create(dir, slots, codec)?;
        spool.columnar = true;
        Ok(spool)
    }

    /// Whether this spool writes columnar frames.
    pub fn is_columnar(&self) -> bool {
        self.columnar
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn shard_count(&self) -> usize {
        dj_core::sync::lock(&self.lens).len()
    }

    fn slot_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx:05}.djs"))
    }

    fn sidecar_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx:05}.fpr"))
    }

    /// Serialize `shard` into slot `idx` (atomic: temp file then rename).
    /// Row or columnar frame per the spool's mode.
    pub fn write_shard(&self, idx: usize, shard: &Dataset) -> Result<()> {
        let frame = if self.columnar {
            encode_columnar_frame(shard, self.codec)
        } else {
            encode_shard_frame(shard, self.codec)
        };
        self.write_frame_bytes(idx, &frame, shard.len())
    }

    /// Store a pre-encoded frame (row or columnar — e.g. the output of a
    /// column splice) into slot `idx` atomically, recording `samples` as
    /// the slot's sample count.
    pub fn write_frame_bytes(&self, idx: usize, frame: &[u8], samples: usize) -> Result<()> {
        let path = self.slot_path(idx);
        let tmp = path.with_extension("djs.tmp");
        if dj_core::faults::armed("store.frame.write") {
            // Chaos path: damage the bytes *after* the frame checksum was
            // computed, like real media corruption — the error surfaces
            // at whichever read validates this slot.
            let mut bytes = frame.to_vec();
            dj_core::faults::corrupt("store.frame.write", &mut bytes)?;
            fs::write(&tmp, &bytes)?;
        } else {
            fs::write(&tmp, frame)?;
        }
        fs::rename(&tmp, &path)?;
        let mut lens = dj_core::sync::lock(&self.lens);
        if idx >= lens.len() {
            lens.resize(idx + 1, None);
        }
        lens[idx] = Some(samples);
        Ok(())
    }

    /// Persist per-sample dedup fingerprints for slot `idx` in its sidecar
    /// (`shard-N.fpr`, atomic temp+rename). Fingerprints travel with the
    /// frame so a later dedup barrier can skip its hash pass entirely.
    pub fn write_fingerprints(&self, idx: usize, fingerprints: &[Value]) -> Result<()> {
        let mut out = frame_bytes(FINGERPRINT_MAGIC, &values_to_bytes(fingerprints));
        dj_core::faults::corrupt("store.fpr.write", &mut out)?;
        let path = self.sidecar_path(idx);
        let tmp = path.with_extension("fpr.tmp");
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Read slot `idx`'s fingerprint sidecar. `Ok(None)` when the sidecar
    /// was never written; corruption is a [`DjError::Storage`] error.
    pub fn read_fingerprints(&self, idx: usize) -> Result<Option<Vec<Value>>> {
        let path = self.sidecar_path(idx);
        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        dj_core::faults::corrupt("store.fpr.read", &mut bytes)?;
        if bytes.len() < HEADER_LEN || &bytes[..4] != FINGERPRINT_MAGIC {
            return Err(DjError::Storage(format!(
                "bad fingerprint sidecar header at {path:?}"
            )));
        }
        let len = le_u64(&bytes[4..12]);
        let checksum = le_u64(&bytes[12..20]);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != len {
            return Err(DjError::Storage(format!(
                "fingerprint sidecar length mismatch at {path:?}: got {}, expected {len}",
                payload.len()
            )));
        }
        if fnv1a(payload) != checksum {
            return Err(DjError::Storage(format!(
                "fingerprint sidecar checksum mismatch at {path:?}"
            )));
        }
        values_from_bytes(payload).map(Some)
    }

    /// All fingerprints across all slots, flattened in slot order —
    /// `Ok(None)` unless *every* written slot has a sidecar whose length
    /// matches its shard (a partial set cannot seed a barrier).
    pub fn read_all_fingerprints(&self) -> Result<Option<Vec<Value>>> {
        let mut all = Vec::new();
        for i in 0..self.shard_count() {
            let Some(expected) = self.shard_len(i) else {
                return Ok(None);
            };
            match self.read_fingerprints(i)? {
                Some(fp) if fp.len() == expected => all.extend(fp),
                _ => return Ok(None),
            }
        }
        Ok(Some(all))
    }

    /// Load slot `idx` as an undecoded zero-copy row slab. Errors when the
    /// slot holds a columnar frame — use
    /// [`read_columnar_slab`](ShardSpool::read_columnar_slab) for those.
    pub fn read_frame_slab(&self, idx: usize) -> Result<FrameSlab> {
        FrameSlab::load(self.slot_path(idx))
    }

    /// Load slot `idx` as an undecoded columnar slab.
    pub fn read_columnar_slab(&self, idx: usize) -> Result<ColumnarSlab> {
        ColumnarSlab::load(self.slot_path(idx))
    }

    /// Slot `idx`'s frame file, whole.
    fn slot_bytes(&self, idx: usize) -> Result<Vec<u8>> {
        let path = self.slot_path(idx);
        fs::read(&path)
            .map_err(|e| DjError::Storage(format!("spilled shard {idx} missing at {path:?}: {e}")))
    }

    /// Read slot `idx` back, sniffing the frame format from its magic.
    /// Non-destructive: spilled shards can be re-streamed.
    pub fn read_shard(&self, idx: usize) -> Result<Dataset> {
        self.read_shard_kept(idx, None)
    }

    /// [`read_shard`](ShardSpool::read_shard) of the samples `keep` keeps
    /// (all of them without a mask) — a deferred barrier mask consumed at
    /// load: masked-out samples are stepped over, never decoded.
    pub fn read_shard_kept(&self, idx: usize, keep: Option<&[bool]>) -> Result<Dataset> {
        let mut bytes = self.slot_bytes(idx)?;
        dj_core::faults::corrupt("store.frame.read", &mut bytes)?;
        // Exactly one frame per slot file (both slab parsers reject
        // trailing bytes).
        if bytes.starts_with(COLUMNAR_FRAME_MAGIC) {
            Ok(ColumnarSlab::from_frame_bytes(&bytes)?
                .decode_kept(None, keep)?
                .0)
        } else {
            FrameSlab::from_frame_bytes(&bytes)?.decode_kept(keep)
        }
    }

    /// Slot `idx` as frame bytes holding the samples `keep` keeps. Without
    /// a mask that is the slot file as it stands — spool slots, multi-frame
    /// cache entries and `frames` output parts share one format, so a spool
    /// persists by plain copying. With a mask the frame is re-encoded from
    /// the kept entries' byte ranges; no value is decoded either way.
    pub fn read_frame_bytes(&self, idx: usize, keep: Option<&[bool]>) -> Result<Vec<u8>> {
        let mut bytes = self.slot_bytes(idx)?;
        let Some(keep) = keep else {
            return Ok(bytes);
        };
        dj_core::faults::corrupt("store.frame.read", &mut bytes)?;
        if bytes.starts_with(COLUMNAR_FRAME_MAGIC) {
            let slab = ColumnarSlab::from_frame_bytes(&bytes)?;
            Ok(slab.filter_frame(keep, self.codec)?.0)
        } else {
            FrameSlab::from_frame_bytes(&bytes)?.filter_frame(keep, self.codec)
        }
    }

    /// Sample count of slot `idx`, if it has been written.
    pub fn shard_len(&self, idx: usize) -> Option<usize> {
        dj_core::sync::lock(&self.lens).get(idx).copied().flatten()
    }

    /// Total samples across all written slots.
    pub fn total_samples(&self) -> usize {
        (0..self.shard_count())
            .filter_map(|i| self.shard_len(i))
            .sum()
    }

    /// Bytes currently on disk in this spool.
    pub fn disk_usage(&self) -> u64 {
        (0..self.shard_count())
            .filter_map(|i| fs::metadata(self.slot_path(i)).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Materialize the whole spool back into one in-memory dataset,
    /// preserving shard order.
    pub fn materialize(&self) -> Result<Dataset> {
        let mut out = Dataset::new();
        for i in 0..self.shard_count() {
            out.extend(self.read_shard(i)?);
        }
        Ok(out)
    }
}

impl ShardSource for ShardSpool {
    fn shard_count(&self) -> usize {
        self.shard_count()
    }
    fn load_shard(&self, idx: usize) -> Result<Dataset> {
        self.read_shard(idx)
    }
}

impl ShardSink for ShardSpool {
    fn store_shard(&self, idx: usize, shard: Dataset) -> Result<()> {
        self.write_shard(idx, &shard)
    }
}

impl Drop for ShardSpool {
    fn drop(&mut self) {
        // Spill data is transient by definition: leave no temp dirs behind.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::Sample;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dj-shard-stream-{tag}-{}", std::process::id()))
    }

    fn shard(texts: &[&str]) -> Dataset {
        Dataset::from_texts(texts.iter().copied())
    }

    fn rich_shard() -> Dataset {
        let mut ds = Dataset::new();
        let mut s = Sample::from_text("hello\nworld");
        s.set_stat("wc", 2.0);
        s.set_meta("lang", "en");
        ds.push(s);
        ds.push(Sample::from_text("数据处理系统 — out-of-core 実行"));
        ds
    }

    #[test]
    fn frame_roundtrip_all_codecs() {
        for codec in [Codec::None, Codec::Rle, Codec::Djz] {
            for ds in [Dataset::new(), shard(&["a", "b"]), rich_shard()] {
                let frame = encode_shard_frame(&ds, codec);
                let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
                assert_eq!(back, ds, "codec {codec:?}");
            }
        }
    }

    #[test]
    fn multi_frame_stream_roundtrips_in_order() {
        let shards = vec![
            shard(&["first", "second"]),
            Dataset::new(), // empty shard mid-stream
            rich_shard(),
            shard(&["Ünïcødé ♥ 中文 🦀", ""]),
        ];
        let mut w = ShardStreamWriter::new(Vec::new(), Codec::Djz);
        for s in &shards {
            w.write(s).unwrap();
        }
        assert_eq!(w.frames(), 4);
        let buf = w.finish().unwrap();
        let mut r = ShardStreamReader::new(buf.as_slice());
        for expect in &shards {
            assert_eq!(&r.next_shard().unwrap().unwrap(), expect);
        }
        assert!(r.next_shard().unwrap().is_none());
        // And the concatenating reader matches from_shards.
        let merged = read_shard_stream(buf.as_slice()).unwrap();
        assert_eq!(merged, Dataset::from_shards(shards));
    }

    #[test]
    fn large_shard_spans_many_codec_windows() {
        // Serialized payload far beyond the 64 KiB djz window and any
        // internal buffer size.
        let texts: Vec<String> = (0..4000)
            .map(|i| format!("document {i} with enough body text to add up — padding padding"))
            .collect();
        let big = Dataset::from_texts(texts);
        assert!(
            to_bytes(&big).len() > 128 * 1024,
            "payload must span windows"
        );
        for codec in [Codec::None, Codec::Djz] {
            let frame = encode_shard_frame(&big, codec);
            let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
            assert_eq!(back, big, "codec {codec:?}");
        }
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let frame = encode_shard_frame(&rich_shard(), Codec::Djz);
        // Truncation at every prefix length must be a clean Storage error
        // (or clean EOF for the empty prefix), never a panic.
        for cut in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 5,
            frame.len() - 1,
        ] {
            let res = read_shard_frame(&mut &frame[..cut]);
            if cut == 0 {
                assert!(matches!(res, Ok(None)), "cut=0 is clean EOF");
            } else {
                let err = res.unwrap_err();
                assert!(matches!(err, DjError::Storage(_)), "cut={cut} gave {err:?}");
            }
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut frame = encode_shard_frame(&shard(&["corruption target"]), Codec::None);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let err = read_shard_frame(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Bad magic likewise.
        let mut bad = encode_shard_frame(&shard(&["x"]), Codec::None);
        bad[0] = b'X';
        assert!(read_shard_frame(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn implausible_length_rejected_without_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(SHARD_FRAME_MAGIC);
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        let err = read_shard_frame(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    #[test]
    fn spool_write_read_and_cleanup_on_drop() {
        let dir = tmpdir("spool");
        let shards = vec![shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        {
            let spool = ShardSpool::create(&dir, 3, Codec::Djz).unwrap();
            for (i, s) in shards.iter().enumerate() {
                spool.write_shard(i, s).unwrap();
            }
            assert_eq!(spool.shard_len(0), Some(3));
            assert_eq!(spool.shard_len(1), Some(0));
            assert_eq!(spool.total_samples(), 5);
            assert!(spool.disk_usage() > 0);
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(&spool.read_shard(i).unwrap(), s);
            }
            assert_eq!(spool.materialize().unwrap(), Dataset::from_shards(shards));
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spool must remove its dir on drop");
    }

    #[test]
    fn spool_detects_truncation_and_missing_shards() {
        let dir = tmpdir("spool-corrupt");
        let spool = ShardSpool::create(&dir, 2, Codec::Djz).unwrap();
        spool.write_shard(0, &rich_shard()).unwrap();
        // Truncate the file as a mid-write kill would (without the atomic
        // rename protection).
        let path = dir.join("shard-00000.djs");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = spool.read_shard(0).unwrap_err();
        assert!(matches!(err, DjError::Storage(_)), "{err}");
        // Slot 1 was never written.
        let err = spool.read_shard(1).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn spool_leftover_tmp_file_is_invisible_to_readers() {
        // A kill between `fs::write(tmp)` and `fs::rename` leaves only a
        // `.tmp` file; the slot then correctly reads as missing, and a
        // rewrite replaces it atomically.
        let dir = tmpdir("spool-tmp");
        let spool = ShardSpool::create(&dir, 1, Codec::Djz).unwrap();
        fs::write(
            dir.join("shard-00000.djs.tmp"),
            b"partial frame from a killed run",
        )
        .unwrap();
        assert!(spool.read_shard(0).is_err());
        spool.write_shard(0, &shard(&["recovered"])).unwrap();
        assert_eq!(spool.read_shard(0).unwrap(), shard(&["recovered"]));
    }

    #[test]
    fn spool_grows_past_initial_slots() {
        let dir = tmpdir("spool-grow");
        let spool = ShardSpool::create(&dir, 0, Codec::Djz).unwrap();
        assert_eq!(spool.shard_count(), 0);
        spool.write_shard(0, &shard(&["a"])).unwrap();
        spool.write_shard(2, &rich_shard()).unwrap();
        assert_eq!(spool.shard_count(), 3);
        assert_eq!(spool.shard_len(0), Some(1));
        assert_eq!(spool.shard_len(1), None);
        assert_eq!(spool.shard_len(2), Some(2));
        spool.write_shard(1, &Dataset::new()).unwrap();
        assert_eq!(spool.total_samples(), 3);
    }

    #[test]
    fn fingerprint_sidecars_roundtrip_and_gate_on_completeness() {
        let dir = tmpdir("spool-fpr");
        let spool = ShardSpool::create(&dir, 2, Codec::Djz).unwrap();
        spool.write_shard(0, &shard(&["a", "b"])).unwrap();
        spool.write_shard(1, &shard(&["c"])).unwrap();
        let fp0 = vec![Value::Int(7), Value::Str("h".into())];
        let fp1 = vec![Value::from(vec![Value::Int(1), Value::Int(2)])];
        spool.write_fingerprints(0, &fp0).unwrap();
        // One sidecar missing → no flattened set.
        assert!(spool.read_all_fingerprints().unwrap().is_none());
        spool.write_fingerprints(1, &fp1).unwrap();
        assert_eq!(spool.read_fingerprints(0).unwrap(), Some(fp0.clone()));
        let all = spool.read_all_fingerprints().unwrap().unwrap();
        assert_eq!(all, vec![fp0[0].clone(), fp0[1].clone(), fp1[0].clone()]);
        // Length mismatch with its shard disqualifies the whole set.
        spool.write_fingerprints(1, &[]).unwrap();
        assert!(spool.read_all_fingerprints().unwrap().is_none());
        // Corruption is a Storage error, not a silent miss.
        let path = dir.join("shard-00000.fpr");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(spool.read_fingerprints(0).is_err());
    }

    #[test]
    fn columnar_spool_roundtrips_and_streams() {
        let dir = tmpdir("spool-columnar");
        let shards = vec![shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        let spool = ShardSpool::create_columnar(&dir, 3, Codec::Djz).unwrap();
        assert!(spool.is_columnar());
        for (i, s) in shards.iter().enumerate() {
            spool.write_shard(i, s).unwrap();
        }
        // read_shard sniffs DJSC and decodes whole samples.
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(&spool.read_shard(i).unwrap(), s);
        }
        assert_eq!(
            spool.materialize().unwrap(),
            Dataset::from_shards(shards.clone())
        );
        // The columnar slab path sees the same data.
        let slab = spool.read_columnar_slab(2).unwrap();
        assert_eq!(slab.decode().unwrap(), shards[2]);
        // Row slab loads must refuse columnar slots.
        assert!(spool.read_frame_slab(0).is_err());
        // Raw frame concatenation (the cache save path) stays readable: the
        // multi-frame stream reader sniffs per-frame magic.
        let mut buf = Vec::new();
        for i in 0..3 {
            buf.extend(spool.read_frame_bytes(i, None).unwrap());
        }
        assert_eq!(
            read_shard_stream(buf.as_slice()).unwrap(),
            Dataset::from_shards(shards.clone())
        );
        assert_eq!(count_frames(&mut std::io::Cursor::new(&buf)).unwrap(), 3);
        // A pre-encoded splice output lands like any other write.
        let frame = crate::columnar::encode_columnar_frame(&shards[0], Codec::Djz);
        spool.write_frame_bytes(1, &frame, shards[0].len()).unwrap();
        assert_eq!(spool.read_shard(1).unwrap(), shards[0]);
        assert_eq!(spool.shard_len(1), Some(3));
    }

    #[test]
    fn frame_slab_matches_full_decode() {
        let dir = tmpdir("slab");
        let spool = ShardSpool::create(&dir, 1, Codec::Djz).unwrap();
        let ds = rich_shard();
        spool.write_shard(0, &ds).unwrap();
        let slab = spool.read_frame_slab(0).unwrap();
        assert_eq!(slab.sample_count().unwrap(), ds.len());
        assert!(slab.payload_len() > 0);
        assert_eq!(slab.decode().unwrap(), ds);
        let texts = slab.texts_at("text").unwrap();
        let expected: Vec<&str> = ds.iter().map(|s| s.text()).collect();
        assert_eq!(
            texts.iter().map(|c| c.as_ref()).collect::<Vec<_>>(),
            expected
        );
    }

    #[test]
    fn frame_slab_rejects_corruption_and_trailing_bytes() {
        let frame = encode_shard_frame(&rich_shard(), Codec::None);
        assert!(FrameSlab::from_frame_bytes(&frame).is_ok());
        assert!(FrameSlab::from_frame_bytes(&frame[..frame.len() - 1]).is_err());
        let mut extra = frame.clone();
        extra.push(0);
        let err = FrameSlab::from_frame_bytes(&extra).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        let mut flipped = frame;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let err = FrameSlab::from_frame_bytes(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(FrameSlab::load(tmpdir("no-such-slab")).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Frame encode→decode is the identity for arbitrary (including
        /// unicode-heavy) sample texts under every codec.
        #[test]
        fn prop_frame_roundtrip(
            texts in proptest::collection::vec(".{0,60}", 0..12),
            codec_id in 0u8..3,
        ) {
            let codec = [Codec::None, Codec::Rle, Codec::Djz][codec_id as usize];
            let ds = Dataset::from_texts(texts);
            let frame = encode_shard_frame(&ds, codec);
            let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
            prop_assert_eq!(back, ds);
        }

        /// Any single corrupted byte in a frame is detected (magic, length,
        /// checksum or payload — corruption never round-trips silently).
        #[test]
        fn prop_single_byte_corruption_detected(
            flip_pos in 0usize..200,
            flip_bit in 0u8..8,
        ) {
            let ds = shard(&["a stable document body for corruption testing 0123456789"]);
            let mut frame = encode_shard_frame(&ds, Codec::None);
            let pos = flip_pos % frame.len();
            frame[pos] ^= 1 << flip_bit;
            match read_shard_frame(&mut frame.as_slice()) {
                Ok(Some(back)) => prop_assert!(back != ds, "corruption at {} slipped through", pos),
                Ok(None) => prop_assert!(false, "corrupt frame read as clean EOF"),
                Err(_) => {} // detected — the expected outcome
            }
        }
    }
}
