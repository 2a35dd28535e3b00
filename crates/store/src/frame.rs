//! Sealed frames: the one envelope and the one [`Frame`].
//!
//! Everything this crate persists between stages — a spool slot, a
//! fingerprint sidecar, a `frames` output part, a cache entry — is one or
//! more *sealed* byte strings sharing a 20-byte envelope:
//!
//! ```text
//! ┌──────────┬──────────────┬──────────┬──────────────┬──────────┐
//! │ magic    │ payload_len  │ version  │ checksum     │ payload  │
//! │ 4 bytes  │ u56 LE       │ u8 = 1   │ u64 LE       │          │
//! └──────────┴──────────────┴──────────┴──────────────┴──────────┘
//! ```
//!
//! The length prefix makes sealed strings skippable (a cache entry is a
//! plain concatenation of them), the checksum detects bit rot and torn
//! writes. It is [`dj_hash::checksum64`], a word-at-a-time hash pinned as
//! a format hash, under which one flipped bit always changes the sum. The
//! version names the checksum: an envelope an earlier release summed with
//! FNV-1a has version 0 and is refused as such, not as damage.
//! [`envelope`] is the only code that writes or checks that header.
//! Truncated or corrupted input is a clean [`DjError::Storage`] — never a
//! panic, never silently short data, and nothing is allocated on the word of
//! a length field.
//!
//! A shard frame is a sealed string whose magic says how its payload lays
//! the samples out: `DJSF` (row: one compressed run of whole samples,
//! [`FrameSlab`]) or `DJSC` (columnar: per-column regions,
//! [`ColumnarSlab`]). [`Frame::parse`] is the only place that tells them
//! apart; every consumer — the spool, the cache, the executor's feeds and
//! sinks — works on a [`Frame`] and never asks which one it holds.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::io::Read;

use dj_core::{Dataset, DjError, Result};

use crate::codec::Codec;
use crate::columnar::{split_column_path, ColumnarSlab};
use crate::shard_stream::{encode_shard_frame, FrameSlab};

/// Magic of row shard frames.
pub const SHARD_FRAME_MAGIC: &[u8; 4] = b"DJSF";

/// Magic of columnar shard frames.
pub const COLUMNAR_FRAME_MAGIC: &[u8; 4] = b"DJSC";

/// Magic of fingerprint sidecar files (`shard-N.fpr`).
pub const FINGERPRINT_MAGIC: &[u8; 4] = b"DJFP";

/// The envelope: seal a payload, open sealed bytes.
pub mod envelope {
    use super::*;
    use crate::serialize::le_u64;
    use dj_hash::checksum64;

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
        out.extend_from_slice(magic);
        let word = payload.len() as u64 | (VERSION as u64) << 56;
        out.extend_from_slice(&word.to_le_bytes());
        out.extend_from_slice(&checksum64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Open the sealed string `bytes` starts with: its magic, its verified
    /// payload, and whatever follows it (walking a concatenation is `open`
    /// in a loop until the rest is empty).
    pub fn open(bytes: &[u8]) -> Result<([u8; 4], &[u8], &[u8])> {
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
        Ok((magic, payload, rest))
    }

    /// [`open`] bytes that must hold exactly one sealed string (a slot
    /// file, a sidecar, an output part).
    pub fn open_one(bytes: &[u8]) -> Result<([u8; 4], &[u8])> {
        let (magic, payload, rest) = open(bytes)?;
        if !rest.is_empty() {
            return Err(DjError::Storage(format!(
                "{} trailing bytes after frame",
                rest.len()
            )));
        }
        Ok((magic, payload))
    }

    /// Cut the next sealed string off a stream, unopened: `Ok(None)` at a
    /// clean end of stream. The length field only says how far to read —
    /// the buffer grows with the bytes that actually arrive — so a short or
    /// damaged string comes back as it is, for [`open`] to refuse.
    pub fn read_one<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>> {
        let mut sealed = Vec::new();
        r.by_ref()
            .take(HEADER_LEN as u64)
            .read_to_end(&mut sealed)?;
        if sealed.is_empty() {
            return Ok(None);
        }
        if sealed.len() == HEADER_LEN {
            let (len, _) = length_word(&sealed);
            r.by_ref().take(len).read_to_end(&mut sealed)?;
        }
        Ok(Some(sealed))
    }
}

/// The verified payload of one sealed shard frame, and whether its magic
/// says columnar — the one place the two frame magics are compared.
fn sniff(sealed: &[u8]) -> Result<(bool, &[u8])> {
    let (magic, payload) = envelope::open_one(sealed)?;
    if &magic == SHARD_FRAME_MAGIC {
        Ok((false, payload))
    } else if &magic == COLUMNAR_FRAME_MAGIC {
        Ok((true, payload))
    } else {
        Err(DjError::Storage("bad shard frame magic".into()))
    }
}

/// One shard frame, checked and loaded but not decoded.
///
/// A row frame holds its decompressed run of serialized samples; a
/// columnar frame holds its directory and still-compressed regions, and
/// every accessor decompresses only the regions it is asked for.
#[derive(Debug)]
pub enum Frame {
    Row(FrameSlab),
    Col(ColumnarSlab),
}

impl Frame {
    /// Parse exactly one sealed frame of either format.
    pub fn parse(sealed: &[u8]) -> Result<Frame> {
        Ok(match sniff(sealed)? {
            (false, payload) => Frame::Row(FrameSlab::from_payload(payload)?),
            (true, payload) => Frame::Col(ColumnarSlab::from_payload(payload.to_vec())?),
        })
    }

    /// Samples stored in the frame, from its header.
    pub fn sample_count(&self) -> Result<usize> {
        match self {
            Frame::Row(slab) => slab.sample_count(),
            Frame::Col(slab) => Ok(slab.sample_count()),
        }
    }

    /// Bytes the loaded frame holds in memory.
    pub fn payload_len(&self) -> usize {
        match self {
            Frame::Row(slab) => slab.payload_len(),
            Frame::Col(slab) => slab.payload_len(),
        }
    }

    /// Build the samples `keep` keeps (all of them without a mask), and
    /// count the decompressed bytes decoded on a caller's request: a
    /// columnar frame materializes only the columns `cols` names (`None` =
    /// every column) and reports their region sizes; a row frame can only
    /// decode whole samples, ignores `cols` and reports 0.
    pub fn decode(
        &self,
        cols: Option<&BTreeSet<String>>,
        keep: Option<&[bool]>,
    ) -> Result<(Dataset, u64)> {
        match self {
            Frame::Row(slab) => Ok((slab.decode_kept(keep)?, 0)),
            Frame::Col(slab) => slab.decode_kept(cols, keep),
        }
    }

    /// What must stay with the decoded samples until they are stored: a
    /// columnar frame, whose undecoded columns
    /// [`store_processed`](Frame::store_processed) copies into the output
    /// frame. A row frame was decoded whole and has nothing left to give.
    pub fn into_splice_source(self) -> Option<Frame> {
        match self {
            Frame::Row(_) => None,
            Frame::Col(_) => Some(self),
        }
    }

    /// The output frame for `processed` — the samples of this frame that
    /// `keep` (one verdict per *stored* sample) kept, after a stage ran on
    /// the columns `cols` — with the samples it stores and the decompressed
    /// bytes that reached it undecoded. A columnar frame re-encodes `cols`
    /// from `processed`, copies every other column's region verbatim and
    /// stores every sample this frame stored: the ones `keep` dropped stay
    /// as dead entries, for `keep` to mask. A row frame had everything
    /// decoded, so `processed` is encoded whole and stores just those.
    pub fn store_processed(
        &self,
        processed: &Dataset,
        cols: Option<&BTreeSet<String>>,
        keep: &[bool],
        codec: Codec,
    ) -> Result<(Vec<u8>, usize, u64)> {
        match self {
            Frame::Row(_) => Ok((encode_shard_frame(processed, codec), processed.len(), 0)),
            Frame::Col(slab) => {
                let (bytes, passthrough) = slab.splice(processed, cols, keep, codec)?;
                Ok((bytes, slab.sample_count(), passthrough))
            }
        }
    }

    /// Lend `f` the text at dotted path `field` of every stored sample,
    /// borrowed from the undecoded frame — a row frame walks its serialized
    /// samples in place, a columnar frame decompresses only that column's
    /// region — so no `Sample` is ever built. Returns `f`'s result and the
    /// decompressed bytes decoded to reach the texts.
    pub fn with_texts<R>(
        &self,
        field: &str,
        f: impl FnOnce(&[Cow<'_, str>]) -> Result<R>,
    ) -> Result<(R, u64)> {
        match self {
            Frame::Row(slab) => Ok((f(&slab.texts_at(field)?)?, 0)),
            Frame::Col(slab) => {
                let (top, rest) = split_column_path(field);
                match slab.read_column(top)? {
                    Some(region) => Ok((f(&region.texts_at(rest)?)?, region.raw_len())),
                    // Column absent from this frame: every sample reads as
                    // the empty string, the missing-field semantics of a
                    // full decode.
                    None => Ok((f(&vec![Cow::Borrowed(""); slab.sample_count()])?, 0)),
                }
            }
        }
    }

    /// Append the JSON-Lines text of the samples `keep` keeps to `out`,
    /// transcoded from the undecoded bytes; returns the line count.
    pub fn write_jsonl(&self, keep: Option<&[bool]>, out: &mut String) -> Result<usize> {
        match self {
            Frame::Row(slab) => slab.write_jsonl(keep, out),
            Frame::Col(slab) => slab.write_jsonl(keep, out),
        }
    }
}

/// One sealed frame as stored, checked and handed on as frame bytes that
/// hold the samples `keep` keeps — in the format it has, or as a row frame
/// when `as_row` (the `frames` output contract).
///
/// Without a mask (and without a columnar → row conversion) that is the
/// stored bytes themselves once the checksum held: spool slots, cache
/// entries and `frames` parts share one format, so data moves between them
/// by copying. A mask re-encodes from the kept entries' byte ranges, no
/// value decoded — the dead entries a spool's mask covers leave the bytes
/// here. Only columnar → row decodes, because it must.
pub(crate) fn checked_copy(
    sealed: Vec<u8>,
    keep: Option<&[bool]>,
    as_row: bool,
    codec: Codec,
) -> Result<Vec<u8>> {
    match (sniff(&sealed)?, keep) {
        ((true, payload), _) if as_row => {
            let slab = ColumnarSlab::from_payload(payload.to_vec())?;
            Ok(encode_shard_frame(&slab.decode_kept(None, keep)?.0, codec))
        }
        (_, None) => Ok(sealed),
        ((false, payload), Some(keep)) => {
            FrameSlab::from_payload(payload)?.filter_frame(keep, codec)
        }
        ((true, payload), Some(keep)) => {
            ColumnarSlab::from_payload(payload.to_vec())?.filter_frame(keep, codec)
        }
    }
}

/// Read the next shard frame of either format off a stream and decode it —
/// how a `frames` output part is read back. `Ok(None)` on a clean end of
/// stream (EOF exactly at a frame boundary).
pub fn read_shard_frame<R: Read>(r: &mut R) -> Result<Option<Dataset>> {
    let Some(sealed) = envelope::read_one(r)? else {
        return Ok(None);
    };
    Ok(Some(Frame::parse(&sealed)?.decode(None, None)?.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::encode_columnar_frame;
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

    fn both(ds: &Dataset) -> [Vec<u8>; 2] {
        [
            encode_shard_frame(ds, Codec::Djz),
            encode_columnar_frame(ds, Codec::Djz),
        ]
    }

    #[test]
    fn seal_open_roundtrip_and_concatenation_walk() {
        let a = envelope::seal(b"AAAA", b"first");
        let b = envelope::seal(b"BBBB", b"");
        let mut both = a.clone();
        both.extend_from_slice(&b);
        let (magic, payload, rest) = envelope::open(&both).unwrap();
        assert_eq!((&magic, payload), (b"AAAA", &b"first"[..]));
        assert_eq!(rest, b.as_slice());
        let (magic, payload, rest) = envelope::open(rest).unwrap();
        assert_eq!((&magic, payload), (b"BBBB", &b""[..]));
        assert!(rest.is_empty());
        assert!(envelope::open_one(&a).is_ok());
        let err = envelope::open_one(&both).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // The stream cutter hands back the same strings, then a clean end.
        let mut stream = both.as_slice();
        assert_eq!(envelope::read_one(&mut stream).unwrap(), Some(a));
        assert_eq!(envelope::read_one(&mut stream).unwrap(), Some(b));
        assert_eq!(envelope::read_one(&mut stream).unwrap(), None);
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
            envelope::open(&old).unwrap_err(),
            Frame::parse(&old).unwrap_err(),
            read_shard_frame(&mut old.as_slice()).unwrap_err(),
        ] {
            assert!(matches!(err, DjError::Storage(_)), "{err:?}");
            assert!(err.to_string().contains("envelope version 0"), "{err}");
        }
        let mut future = envelope::seal(SHARD_FRAME_MAGIC, &payload);
        future[11] = envelope::VERSION + 1;
        let err = envelope::open(&future).unwrap_err();
        assert!(
            err.to_string().contains("unknown frame envelope version 2"),
            "{err}"
        );
        // The stream cutter reads the length under the version byte, so a
        // stream of current envelopes walks as before.
        let sealed = envelope::seal(SHARD_FRAME_MAGIC, &payload);
        assert_eq!(sealed[11], envelope::VERSION);
        let two = sealed.repeat(2);
        let mut stream = two.as_slice();
        assert_eq!(
            envelope::read_one(&mut stream).unwrap(),
            Some(sealed.clone())
        );
        assert_eq!(envelope::read_one(&mut stream).unwrap(), Some(sealed));
    }

    #[test]
    fn a_zeroed_checksum_over_a_zeroed_payload_is_refused() {
        for len in 0..=64 {
            let mut torn = envelope::seal(FINGERPRINT_MAGIC, &vec![7; len]);
            torn[12..].fill(0);
            let err = envelope::open(&torn).unwrap_err();
            assert!(
                err.to_string().contains("checksum mismatch"),
                "{len}: {err}"
            );
        }
    }

    #[test]
    fn every_operation_agrees_across_the_two_formats() {
        let ds = rich_shard();
        let keep = [true, false, true];
        let text: BTreeSet<String> = ["text".to_string()].into();
        let [row, col] = both(&ds).map(|f| Frame::parse(&f).unwrap());
        for frame in [&row, &col] {
            assert_eq!(frame.sample_count().unwrap(), ds.len());
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
        }
        // Projection is the columnar frame's alone: a row frame ignores
        // `cols`, decodes whole samples and attributes no bytes.
        let (whole, bytes) = row.decode(Some(&text), None).unwrap();
        assert_eq!((whole, bytes), (ds.clone(), 0));
        let (projected, bytes) = col.decode(Some(&text), None).unwrap();
        assert!(bytes > 0);
        assert!(projected.iter().all(|s| !s.has_stat("wc")));
        // Only a columnar frame has anything to splice from.
        // A row frame stores the processed samples, a columnar one every
        // sample it stored, for `keep` to mask.
        let processed = masked(&ds, &keep);
        let (stored, samples, passthrough) = row
            .store_processed(&processed, None, &keep, Codec::Djz)
            .unwrap();
        assert_eq!(stored, encode_shard_frame(&processed, Codec::Djz));
        assert_eq!((samples, passthrough), (processed.len(), 0));
        assert!(row.into_splice_source().is_none());
        let col = col.into_splice_source().unwrap();
        let kept_text = col.decode(Some(&text), Some(&keep)).unwrap().0;
        let (stored, samples, passthrough) = col
            .store_processed(&kept_text, Some(&text), &keep, Codec::Djz)
            .unwrap();
        assert!(passthrough > 0);
        assert_eq!(samples, ds.len());
        let stored = Frame::parse(&stored).unwrap();
        assert_eq!(stored.sample_count().unwrap(), ds.len());
        assert_eq!(stored.decode(None, Some(&keep)).unwrap().0, processed);
    }

    #[test]
    fn checked_copy_keeps_bytes_filters_entries_and_converts_only_when_asked() {
        let ds = rich_shard();
        let keep = [false, true, true];
        let [row, col] = both(&ds);
        for (sealed, columnar) in [(&row, false), (&col, true)] {
            // Unmasked, same format: the bytes themselves.
            let copy = checked_copy(sealed.clone(), None, false, Codec::Djz).unwrap();
            assert_eq!(&copy, sealed);
            // Masked: the kept samples, in the format the frame had (a row
            // frame comes out as a fresh encode of them would; a columnar one
            // keeps a column whose last entry was dropped, so only its
            // content is compared).
            let thinned = checked_copy(sealed.clone(), Some(&keep), false, Codec::Djz).unwrap();
            let fresh = masked(&ds, &keep);
            match Frame::parse(&thinned).unwrap() {
                Frame::Row(_) => assert_eq!(thinned, encode_shard_frame(&fresh, Codec::Djz)),
                Frame::Col(slab) => assert_eq!(slab.decode().unwrap(), fresh),
            }
            assert_eq!(
                matches!(Frame::parse(&thinned).unwrap(), Frame::Col(_)),
                columnar
            );
            // As row frames, both formats give what a row run would hold.
            for mask in [None, Some(&keep[..])] {
                let out = checked_copy(sealed.clone(), mask, true, Codec::Djz).unwrap();
                let kept = mask.map_or_else(|| ds.clone(), |k| masked(&ds, k));
                assert_eq!(out, encode_shard_frame(&kept, Codec::Djz));
            }
            // A damaged frame is never copied, masked or not.
            let mut bad = sealed.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0x10;
            for mask in [None, Some(&keep[..])] {
                let err = checked_copy(bad.clone(), mask, false, Codec::Djz).unwrap_err();
                assert!(matches!(err, DjError::Storage(_)), "{err:?}");
            }
        }
    }

    #[test]
    fn read_shard_frame_decodes_both_formats_off_a_stream() {
        let ds = rich_shard();
        let [row, col] = both(&ds);
        let mut stream = row.clone();
        stream.extend_from_slice(&col);
        let mut r = stream.as_slice();
        assert_eq!(read_shard_frame(&mut r).unwrap().unwrap(), ds);
        assert_eq!(read_shard_frame(&mut r).unwrap().unwrap(), ds);
        assert!(read_shard_frame(&mut r).unwrap().is_none());
        // A frame cut short is a typed error, not a clean end.
        let err = read_shard_frame(&mut &row[..row.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // A sealed string that is not a shard frame is refused by magic.
        let sidecar = envelope::seal(FINGERPRINT_MAGIC, b"x");
        let err = Frame::parse(&sidecar).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }
}
