//! Sealed frames: the one envelope and the one [`Frame`].
//!
//! Everything this crate persists between stages — a spool slot, a cache
//! entry's slots and seal record — is one or more *sealed* byte strings
//! sharing a 20-byte envelope:
//!
//! ```text
//! ┌──────────┬──────────────┬──────────┬──────────────┬──────────┐
//! │ magic    │ payload_len  │ version  │ checksum     │ payload  │
//! │ 4 bytes  │ u56 LE       │ u8 = 1   │ u64 LE       │          │
//! └──────────┴──────────────┴──────────┴──────────────┴──────────┘
//! ```
//!
//! Every sealed string lives in a file of its own and is opened whole
//! ([`envelope::open_one`]): the length prefix says where the payload
//! ends, so trailing bytes are refused, and the checksum detects bit rot
//! and torn writes. It is [`dj_hash::checksum64`], a word-at-a-time hash
//! pinned as a format hash, under which one flipped bit always changes the sum. The
//! version names the checksum: an envelope an earlier release summed with
//! FNV-1a has version 0 and is refused as such, not as damage.
//! [`envelope`] is the only code that writes or checks that header.
//! Truncated or corrupted input is a clean [`DjError::Storage`] — never a
//! panic, never silently short data, and nothing is allocated on the word of
//! a length field.
//!
//! A shard frame is a sealed string whose magic says how its payload lays
//! the samples out. Every spool slot and cache entry holds `DJSC` frames
//! (columnar: per-column regions, [`ColumnarSlab`]), which [`Frame`] wraps;
//! every consumer — the spool, the cache, the executor's feeds and sinks —
//! works on a [`Frame`]. `DJSF` (row: one compressed run of whole samples,
//! [`FrameSlab`](crate::FrameSlab)) is written and read by nothing in the
//! engine, only by djbench's probes ([`crate::shard_stream`]), and
//! [`Frame::parse`] refuses it with a typed error.

use std::borrow::Cow;
use std::collections::BTreeSet;

use dj_core::{Dataset, DjError, Result};

use crate::codec::Codec;
use crate::columnar::{encode_columnar_frame, split_column_path, ColumnarSlab, FrameParts};
use crate::pool::{BufferPool, Holds, PooledBuf};
use crate::shard_stream::SPOOL_CODEC;

/// Magic of row shard frames, which no spool slot holds.
pub const SHARD_FRAME_MAGIC: &[u8; 4] = b"DJSF";

/// Magic of columnar shard frames (every spool slot and cache entry).
pub const COLUMNAR_FRAME_MAGIC: &[u8; 4] = b"DJSC";

/// The envelope: seal a payload, open sealed bytes.
pub mod envelope {
    use super::*;
    use crate::serialize::le_u64;
    use dj_hash::{checksum64, Checksum64};

    /// Magic, payload length and version, checksum.
    pub const HEADER_LEN: usize = 4 + 8 + 8;

    /// The envelope this build seals and opens: a [`checksum64`] sum.
    /// Version 0 — the top byte of the length word, which the 64-bit
    /// lengths of earlier releases left zero — summed with FNV-1a.
    pub const VERSION: u8 = 1;

    /// No sealed string is this long; a length field saying otherwise is
    /// damage, reported as such rather than as a truncation by exabytes.
    const MAX_PAYLOAD: u64 = 1 << 40;

    /// The payload length (low 7 bytes) and envelope version (top byte)
    /// of the length word at `header[4..12]`.
    fn length_word(header: &[u8]) -> (u64, u8) {
        let word = le_u64(&header[4..12]);
        (word & ((1 << 56) - 1), (word >> 56) as u8)
    }

    /// Wrap `payload`: magic, payload length and version, checksum, payload.
    pub fn seal(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.resize(HEADER_LEN, 0);
        out.extend_from_slice(payload);
        seal_in_place(magic, &mut out);
        out
    }

    /// Seal a payload built where it will stay: `buf` is [`HEADER_LEN`]
    /// bytes of room for the header, then the payload. The result is
    /// [`seal`]'s, without the copy.
    pub fn seal_in_place(magic: &[u8; 4], buf: &mut [u8]) {
        let (header, payload) = buf.split_at_mut(HEADER_LEN);
        write_header(header, magic, payload.len(), checksum64(payload));
    }

    /// Seal a payload that lies in pieces, never joined: `header` is
    /// [`HEADER_LEN`] bytes of room, `payload` the payload's pieces in
    /// order. The header written is [`seal`]'s for their concatenation.
    pub fn seal_pieces<'p>(
        magic: &[u8; 4],
        header: &mut [u8],
        payload: impl Iterator<Item = &'p [u8]>,
    ) {
        let (mut len, mut sum) = (0, Checksum64::new());
        for piece in payload {
            len += piece.len();
            sum.update(piece);
        }
        write_header(header, magic, len, sum.finish());
    }

    fn write_header(header: &mut [u8], magic: &[u8; 4], len: usize, checksum: u64) {
        let word = len as u64 | (VERSION as u64) << 56;
        header[..4].copy_from_slice(magic);
        header[4..12].copy_from_slice(&word.to_le_bytes());
        header[12..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Open the one sealed string `bytes` holds (a slot file, an output
    /// part, a seal record): its magic and its verified payload.
    pub fn open_one(bytes: &[u8]) -> Result<([u8; 4], &[u8])> {
        if bytes.len() < HEADER_LEN {
            return Err(DjError::Storage(format!(
                "truncated frame header ({} of {HEADER_LEN} bytes)",
                bytes.len()
            )));
        }
        let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
        let (len, version) = length_word(bytes);
        if version == 0 {
            return Err(DjError::Storage(format!(
                "frame sealed under envelope version 0 (FNV-1a checksum) by an \
                 earlier release; this build reads version {VERSION}"
            )));
        }
        if version != VERSION {
            return Err(DjError::Storage(format!(
                "unknown frame envelope version {version}"
            )));
        }
        if len > MAX_PAYLOAD {
            return Err(DjError::Storage(format!("implausible frame length {len}")));
        }
        let checksum = le_u64(&bytes[12..20]);
        let body = &bytes[HEADER_LEN..];
        if (body.len() as u64) < len {
            return Err(DjError::Storage(format!(
                "truncated frame payload ({} of {len} bytes)",
                body.len()
            )));
        }
        let (payload, rest) = body.split_at(len as usize);
        if checksum64(payload) != checksum {
            return Err(DjError::Storage(
                "frame checksum mismatch (corrupted data)".into(),
            ));
        }
        if !rest.is_empty() {
            let n = rest.len();
            return Err(DjError::Storage(format!("{n} trailing bytes after frame")));
        }
        Ok((magic, payload))
    }
}

/// The verified payload of one sealed spill or cache frame — the one place
/// such a frame's magic is checked. Only `DJSC` is one: a spool slot or
/// cache entry an earlier release wrote as a row `DJSF` frame is refused
/// here, which makes such an entry a cache miss.
fn columnar_payload(sealed: &[u8]) -> Result<&[u8]> {
    let (magic, payload) = envelope::open_one(sealed)?;
    if &magic == COLUMNAR_FRAME_MAGIC {
        Ok(payload)
    } else if &magic == SHARD_FRAME_MAGIC {
        Err(DjError::Storage(
            "row shard frame (`DJSF`) where a columnar `DJSC` frame belongs (a \
             spool slot or cache entry an earlier release wrote as row frames \
             is not read)"
                .into(),
        ))
    } else {
        Err(DjError::Storage("bad shard frame magic".into()))
    }
}

/// One spill or cache frame, checked and loaded but not decoded: a
/// columnar `DJSC` frame's directory and still-compressed regions. Every
/// accessor decompresses only the regions it is asked for. A raw JSON
/// column (a field no op of the run reads) is parsed only by a decode;
/// JSONL egress copies its text.
#[derive(Debug)]
pub struct Frame(pub(crate) ColumnarSlab);

impl Frame {
    /// Encode one shard as a sealed frame — the one format every spool
    /// slot and cache entry holds.
    pub fn encode(shard: &Dataset, codec: Codec) -> Vec<u8> {
        encode_columnar_frame(shard, codec)
    }

    /// Parse exactly one sealed frame.
    pub fn parse(sealed: &[u8]) -> Result<Frame> {
        let payload = columnar_payload(sealed)?;
        let mut buf = BufferPool::default().take(Holds::Frames, payload.len());
        buf.extend_from_slice(payload);
        Ok(Frame(ColumnarSlab::from_payload(buf, 0)?))
    }

    /// Parse exactly one sealed frame that `sealed` holds, keeping it: the
    /// frame reads its payload in place, its work on the payload borrows
    /// scratch from the buffer's pool, and the buffer returns there when
    /// the frame drops.
    pub fn parse_owned(sealed: PooledBuf) -> Result<Frame> {
        columnar_payload(&sealed)?;
        Ok(Frame(ColumnarSlab::from_payload(
            sealed,
            envelope::HEADER_LEN,
        )?))
    }

    /// Samples stored in the frame, from its header.
    pub fn sample_count(&self) -> usize {
        self.0.sample_count()
    }

    /// Bytes the loaded frame holds in memory.
    pub fn payload_len(&self) -> usize {
        self.0.payload_len()
    }

    /// Build the samples `keep` keeps (all of them without a mask) from
    /// the columns `cols` names (`None` = every column), and count the
    /// decompressed bytes of the regions decoded to build them.
    pub fn decode(
        &self,
        cols: Option<&BTreeSet<String>>,
        keep: Option<&[bool]>,
    ) -> Result<(Dataset, u64)> {
        self.0.decode_kept(cols, keep)
    }

    /// The output frame for `processed` — the samples of this frame that
    /// `keep` (one verdict per *stored* sample) kept, after a stage ran on
    /// the columns `cols` — with the samples it stores and the decompressed
    /// bytes that reached it undecoded. `cols` is re-encoded from
    /// `processed`, every other column's region is lent from this frame as
    /// it is (the output is in pieces, written one after another by
    /// [`ShardSpool::write_frame`](crate::ShardSpool::write_frame)), and
    /// every sample this frame stored stays stored: the ones `keep` dropped
    /// as dead entries, for `keep` to mask.
    pub fn store_processed(
        &self,
        processed: &Dataset,
        cols: Option<&BTreeSet<String>>,
        keep: &[bool],
    ) -> Result<(FrameParts<'_>, usize, u64)> {
        let (parts, passthrough) = self.0.splice(processed, cols, keep, SPOOL_CODEC)?;
        Ok((parts, self.0.sample_count(), passthrough))
    }

    /// Lend `f` the text at dotted path `field` of every stored sample,
    /// borrowed from that column's decompressed region, so no `Sample` is
    /// ever built. Returns `f`'s result and the decompressed bytes decoded
    /// to reach the texts.
    pub fn with_texts<R>(
        &self,
        field: &str,
        f: impl FnOnce(&[Cow<'_, str>]) -> Result<R>,
    ) -> Result<(R, u64)> {
        let (top, rest) = split_column_path(field);
        match self.0.read_column(top)? {
            Some(region) => Ok((f(&region.texts_at(rest)?)?, region.raw_len())),
            // Column absent from this frame: every sample reads as the
            // empty string, the missing-field semantics of a full decode.
            None => Ok((f(&vec![Cow::Borrowed(""); self.0.sample_count()])?, 0)),
        }
    }

    /// Append the JSON-Lines text of the samples `keep` keeps to `out`,
    /// transcoded from the undecoded bytes; returns the line count.
    pub fn write_jsonl(&self, keep: Option<&[bool]>, out: &mut String) -> Result<usize> {
        self.0.write_jsonl(keep, out)
    }
}

/// One sealed frame as stored, checked and handed on as frame bytes that
/// hold the samples `keep` keeps.
///
/// Without a mask that is the stored bytes themselves once the checksum
/// held: spool slots and cache entries share one format (an entry is a
/// sealed spool), so data moves between them by copying. A mask re-encodes
/// from the kept entries' byte ranges, no value decoded — the dead entries
/// a spool's mask covers leave the bytes here.
pub(crate) fn checked_copy(sealed: PooledBuf, keep: Option<&[bool]>) -> Result<Vec<u8>> {
    columnar_payload(&sealed)?;
    match keep {
        None => Ok(sealed.into_vec()),
        Some(keep) => Ok(ColumnarSlab::from_payload(sealed, envelope::HEADER_LEN)?
            .filter_frame(keep, SPOOL_CODEC)?
            .into_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard_stream::{encode_shard_frame, FrameSlab};
    use dj_core::Sample;

    fn rich_shard() -> Dataset {
        let mut ds = Dataset::new();
        let mut s = Sample::from_text("hello\nworld");
        s.set_stat("wc", 2.0);
        s.set_meta("lang", "en");
        ds.push(s);
        ds.push(Sample::from_text("数据处理系统 — out-of-core 実行"));
        ds.push(Sample::new());
        ds
    }

    fn masked(ds: &Dataset, keep: &[bool]) -> Dataset {
        let mut out = ds.clone();
        out.retain_mask(keep);
        out
    }

    fn pooled(bytes: &[u8]) -> PooledBuf {
        let mut buf = BufferPool::default().take(Holds::Frames, bytes.len());
        buf.extend_from_slice(bytes);
        buf
    }

    #[test]
    fn a_frame_parsed_in_place_reads_like_a_copied_one_and_returns_its_buffer() {
        let ds = rich_shard();
        let sealed = Frame::encode(&ds, Codec::Djz);
        // Sealing in place is sealing a copy.
        let mut built = vec![0; envelope::HEADER_LEN];
        built.extend_from_slice(&sealed[envelope::HEADER_LEN..]);
        envelope::seal_in_place(COLUMNAR_FRAME_MAGIC, &mut built);
        assert_eq!(built, sealed);
        let pool = BufferPool::default();
        let mut buf = pool.take(Holds::Frames, sealed.len());
        buf.extend_from_slice(&sealed);
        let at = buf.as_ptr();
        let frame = Frame::parse_owned(buf).unwrap();
        assert_eq!(frame.payload_len(), sealed.len() - envelope::HEADER_LEN);
        assert_eq!(frame.decode(None, None).unwrap().0, ds);
        let mut out = String::new();
        frame.write_jsonl(None, &mut out).unwrap();
        assert_eq!(out, crate::to_jsonl(&ds));
        drop(frame);
        assert_eq!(pool.take(Holds::Frames, sealed.len()).as_ptr(), at);
        // Damage is refused in place too.
        let mut bad = pooled(&sealed);
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(Frame::parse_owned(bad).is_err());
    }

    #[test]
    fn seal_open_roundtrip_and_trailing_bytes_refused() {
        let a = envelope::seal(b"AAAA", b"first");
        let b = envelope::seal(b"BBBB", b"");
        let mut both = a.clone();
        both.extend_from_slice(&b);
        let (magic, payload) = envelope::open_one(&a).unwrap();
        assert_eq!((&magic, payload), (b"AAAA", &b"first"[..]));
        let (magic, payload) = envelope::open_one(&b).unwrap();
        assert_eq!((&magic, payload), (b"BBBB", &b""[..]));
        let err = envelope::open_one(&both).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    /// An envelope as earlier releases sealed it: a plain u64 length (top
    /// byte 0, the version byte now) and an FNV-1a checksum.
    fn sealed_under_version_0(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut out = magic.to_vec();
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&dj_hash::fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn an_envelope_of_another_version_is_refused_by_its_version() {
        let payload =
            encode_shard_frame(&rich_shard(), Codec::Djz)[envelope::HEADER_LEN..].to_vec();
        let old = sealed_under_version_0(SHARD_FRAME_MAGIC, &payload);
        for err in [
            envelope::open_one(&old).unwrap_err(),
            Frame::parse(&old).unwrap_err(),
            FrameSlab::from_frame_bytes(&old).unwrap_err(),
        ] {
            assert!(matches!(err, DjError::Storage(_)), "{err:?}");
            assert!(err.to_string().contains("envelope version 0"), "{err}");
        }
        let mut future = envelope::seal(SHARD_FRAME_MAGIC, &payload);
        future[11] = envelope::VERSION + 1;
        let err = envelope::open_one(&future).unwrap_err();
        assert!(
            err.to_string().contains("unknown frame envelope version 2"),
            "{err}"
        );
        // The version byte sits under the length word's top byte, which
        // the current envelope's length never reaches.
        let sealed = envelope::seal(SHARD_FRAME_MAGIC, &payload);
        assert_eq!(sealed[11], envelope::VERSION);
        assert_eq!(envelope::open_one(&sealed).unwrap().1, &payload[..]);
    }

    #[test]
    fn a_zeroed_checksum_over_a_zeroed_payload_is_refused() {
        for len in 0..=64 {
            let mut torn = envelope::seal(b"TEST", &vec![7; len]);
            torn[12..].fill(0);
            let err = envelope::open_one(&torn).unwrap_err();
            assert!(
                err.to_string().contains("checksum mismatch"),
                "{len}: {err}"
            );
        }
    }

    #[test]
    fn every_frame_operation_agrees_with_the_decoded_shard() {
        let ds = rich_shard();
        let keep = [true, false, true];
        let text: BTreeSet<String> = ["text".to_string()].into();
        let frame = Frame::parse(&Frame::encode(&ds, Codec::Djz)).unwrap();
        assert_eq!(frame.sample_count(), ds.len());
        assert!(frame.payload_len() > 0);
        assert_eq!(frame.decode(None, None).unwrap().0, ds);
        assert_eq!(
            frame.decode(None, Some(&keep)).unwrap().0,
            masked(&ds, &keep)
        );
        let (texts, _) = frame
            .with_texts("text", |t| {
                Ok(t.iter().map(|c| c.to_string()).collect::<Vec<_>>())
            })
            .unwrap();
        let expected: Vec<&str> = ds.iter().map(|s| s.text()).collect();
        assert_eq!(texts, expected);
        let mut out = String::new();
        assert_eq!(frame.write_jsonl(Some(&keep), &mut out).unwrap(), 2);
        assert_eq!(out, crate::to_jsonl(&masked(&ds, &keep)));
        // Projection decodes only the named columns and counts their bytes.
        let (projected, bytes) = frame.decode(Some(&text), None).unwrap();
        assert!(bytes > 0);
        assert!(projected.iter().all(|s| s.stat("wc").is_none()));
        // A stage's output frame stores every sample this one stored, for
        // `keep` to mask.
        let processed = masked(&ds, &keep);
        let kept_text = frame.decode(Some(&text), Some(&keep)).unwrap().0;
        let (stored, samples, passthrough) = frame
            .store_processed(&kept_text, Some(&text), &keep)
            .unwrap();
        assert!(passthrough > 0);
        assert_eq!(samples, ds.len());
        let stored = Frame::parse(&stored.to_vec()).unwrap();
        assert_eq!(stored.sample_count(), ds.len());
        assert_eq!(stored.decode(None, Some(&keep)).unwrap().0, processed);
    }

    #[test]
    fn checked_copy_keeps_bytes_and_filters_entries() {
        let ds = rich_shard();
        let keep = [false, true, true];
        let sealed = Frame::encode(&ds, Codec::Djz);
        // Unmasked: the bytes themselves.
        let copy = checked_copy(pooled(&sealed), None).unwrap();
        assert_eq!(copy, sealed);
        // Masked: the kept samples, still a columnar frame (one that keeps
        // a column whose last entry was dropped, so only its content is
        // compared).
        let thinned = checked_copy(pooled(&sealed), Some(&keep)).unwrap();
        let thinned = Frame::parse(&thinned).unwrap();
        assert_eq!(thinned.decode(None, None).unwrap().0, masked(&ds, &keep));
        // A damaged frame is never copied, masked or not, and a row frame
        // is never a spool slot.
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        let row = encode_shard_frame(&ds, Codec::Djz);
        for frame in [bad, row] {
            for mask in [None, Some(&keep[..])] {
                let err = checked_copy(pooled(&frame), mask).unwrap_err();
                assert!(matches!(err, DjError::Storage(_)), "{err:?}");
            }
        }
    }

    #[test]
    fn row_frames_are_refused_as_spill_frames() {
        let ds = rich_shard();
        let row = encode_shard_frame(&ds, Codec::Djz);
        let read = |bytes: &[u8]| FrameSlab::from_frame_bytes(bytes)?.decode();
        assert_eq!(read(&row).unwrap(), ds);
        // A slab is exactly one frame: a second is trailing bytes, and a
        // frame cut short is a typed error.
        let err = read(&row.repeat(2)).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        let err = read(&row[..row.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // A row frame is no spill or cache frame, and a columnar one is no
        // row slab: each is refused by its magic.
        let err = Frame::parse(&row).unwrap_err();
        assert!(matches!(err, DjError::Storage(_)), "{err:?}");
        assert!(err.to_string().contains("DJSF"), "{err}");
        assert!(read(&Frame::encode(&ds, Codec::Djz)).is_err());
        // A sealed string that is not a shard frame is refused by magic.
        let other = envelope::seal(b"TEST", b"x");
        let err = Frame::parse(&other).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }
}
