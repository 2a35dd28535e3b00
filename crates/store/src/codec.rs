//! Cache-file compression codecs (paper §6, "Optimized Space Utilization").
//!
//! The original system wires zstd/LZ4 into its cache manager; those crates
//! are outside the allowed dependency set, so this module implements one
//! codec from scratch with the same role — shrink cache files between OPs
//! at negligible (de)compression cost relative to processing time:
//!
//! * [`Codec::Djz`] — an LZ77-family codec with a 64 KiB window and greedy
//!   hash-table matching (the general-purpose default);
//! * [`Codec::None`] — passthrough.
//!
//! Every frame starts with a 4-byte magic + codec id so files self-describe.
//! Id `1` belonged to a run-length codec nothing selected; it stays reserved,
//! so a stray frame carrying it is refused as an unknown codec.

use dj_core::{DjError, Result};

/// Available codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    None,
    Djz,
}

const MAGIC: &[u8; 3] = b"DJZ";

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Djz => 2,
        }
    }

    fn from_id(id: u8) -> Result<Codec> {
        match id {
            0 => Ok(Codec::None),
            2 => Ok(Codec::Djz),
            other => Err(DjError::Storage(format!("unknown codec id {other}"))),
        }
    }
}

/// Compress `data` into a self-describing frame.
pub fn compress(data: &[u8], codec: Codec) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.push(codec.id());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    match codec {
        Codec::None => out.extend_from_slice(data),
        Codec::Djz => djz_compress(data, &mut out),
    }
    out
}

/// The most bytes `compressed_len` bytes can decompress to: the densest
/// token is a 3-byte djz match standing for [`MAX_MATCH`] bytes. A length
/// field claiming more is damage, and nothing is allocated on its word.
pub(crate) fn max_raw_len(compressed_len: usize) -> u64 {
    (compressed_len as u64).saturating_mul(MAX_MATCH.div_ceil(3) as u64)
}

/// Decompress a frame produced by [`compress`].
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>> {
    if frame.len() < 12 || &frame[..3] != MAGIC {
        return Err(DjError::Storage("bad compression frame header".into()));
    }
    let codec = Codec::from_id(frame[3])?;
    let expected = crate::serialize::le_u64(&frame[4..12]);
    let body = &frame[12..];
    if expected > max_raw_len(body.len()) {
        return Err(DjError::Storage(format!(
            "implausible decompressed size {expected} for {} bytes",
            body.len()
        )));
    }
    let expected = expected as usize;
    let out = match codec {
        Codec::None => body.to_vec(),
        Codec::Djz => djz_decompress(body, expected)?,
    };
    if out.len() != expected {
        return Err(DjError::Storage(format!(
            "decompressed size mismatch: got {}, expected {expected}",
            out.len()
        )));
    }
    Ok(out)
}

// ---- DJZ (LZ77) ------------------------------------------------------------
// Token: control byte t.
//   t & 0x80 == 0 → literal run of (t+1) bytes (1..=128) follows.
//   t & 0x80 != 0 → match of length ((t & 0x7F) + MIN_MATCH), followed by a
//                   2-byte little-endian back-offset (1..=65535).

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 127 + MIN_MATCH;
const WINDOW: usize = 65535;
const HASH_BITS: u32 = 15;

#[inline]
fn djz_hash(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn djz_compress(data: &[u8], out: &mut Vec<u8>) {
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0;
    let mut lit_start = 0;
    while i + MIN_MATCH <= data.len() {
        let h = djz_hash(&data[i..]);
        let cand = table[h];
        table[h] = i;
        let mut match_len = 0;
        if cand != usize::MAX
            && i - cand <= WINDOW
            && data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH]
        {
            let max = (data.len() - i).min(MAX_MATCH);
            let mut l = MIN_MATCH;
            while l < max && data[cand + l] == data[i + l] {
                l += 1;
            }
            match_len = l;
        }
        if match_len >= MIN_MATCH {
            flush_djz_literals(&data[lit_start..i], out);
            out.push(0x80 | (match_len - MIN_MATCH) as u8);
            out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
            // Index a few positions inside the match to keep the table warm.
            let end = i + match_len;
            let mut j = i + 1;
            while j + MIN_MATCH <= data.len() && j < end {
                table[djz_hash(&data[j..])] = j;
                j += 3;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_djz_literals(&data[lit_start..], out);
}

fn flush_djz_literals(mut lits: &[u8], out: &mut Vec<u8>) {
    while !lits.is_empty() {
        let n = lits.len().min(128);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

fn djz_decompress(body: &[u8], expected: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(expected);
    let mut i = 0;
    while i < body.len() {
        let t = body[i];
        i += 1;
        if t & 0x80 == 0 {
            let n = t as usize + 1;
            if i + n > body.len() {
                return Err(DjError::Storage("djz: truncated literal run".into()));
            }
            out.extend_from_slice(&body[i..i + n]);
            i += n;
        } else {
            if i + 2 > body.len() {
                return Err(DjError::Storage("djz: truncated match token".into()));
            }
            let len = (t & 0x7F) as usize + MIN_MATCH;
            let offset = u16::from_le_bytes([body[i], body[i + 1]]) as usize;
            i += 2;
            if offset == 0 || offset > out.len() {
                return Err(DjError::Storage("djz: invalid match offset".into()));
            }
            let start = out.len() - offset;
            // Overlapping copies are the point of LZ77; copy byte-wise.
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    Ok(out)
}

/// Compression ratio (compressed/original); > 1 means expansion.
pub fn ratio(original: usize, compressed: usize) -> f64 {
    if original == 0 {
        return 1.0;
    }
    compressed as f64 / original as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8], codec: Codec) {
        let frame = compress(data, codec);
        let back = decompress(&frame).unwrap();
        assert_eq!(back, data, "roundtrip failed for {codec:?}");
    }

    #[test]
    fn roundtrips_basic() {
        for codec in [Codec::None, Codec::Djz] {
            roundtrip(b"", codec);
            roundtrip(b"a", codec);
            roundtrip(b"hello world hello world hello world", codec);
            roundtrip(&[0u8; 10_000], codec);
            roundtrip("数据处理系统 data processing".as_bytes(), codec);
        }
    }

    #[test]
    fn djz_compresses_repetitive_text() {
        let data = "the quick brown fox jumps over the lazy dog. "
            .repeat(200)
            .into_bytes();
        let frame = compress(&data, Codec::Djz);
        assert!(
            frame.len() < data.len() / 4,
            "djz ratio {:.3}",
            ratio(data.len(), frame.len())
        );
        roundtrip(&data, Codec::Djz);
    }

    #[test]
    fn corrupt_frames_rejected() {
        assert!(decompress(b"xx").is_err());
        assert!(decompress(b"BAD0aaaaaaaaaa").is_err());
        let mut frame = compress(b"hello hello hello hello", Codec::Djz);
        frame.truncate(frame.len() - 3);
        assert!(decompress(&frame).is_err());
        // Wrong declared size.
        let mut frame2 = compress(b"abc", Codec::None);
        frame2[4] = 99;
        assert!(decompress(&frame2).is_err());
        // The retired run-length codec's id stays reserved.
        let mut rle = compress(b"abc", Codec::None);
        rle[3] = 1;
        let err = decompress(&rle).unwrap_err();
        assert!(err.to_string().contains("unknown codec id 1"), "{err}");
    }

    #[test]
    fn overlapping_match_decodes() {
        // "aaaa..." forces matches with offset 1 (maximal overlap).
        let data = vec![b'a'; 1000];
        roundtrip(&data, Codec::Djz);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_djz(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            roundtrip(&data, Codec::Djz);
        }

        #[test]
        fn prop_roundtrip_structured(seed in any::<u64>()) {
            // Structured text resembling cache payloads.
            let mut s = String::new();
            let mut x = seed;
            for _ in 0..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s.push_str(match x % 7 {
                    0 => "{\"text\":\"sample\",",
                    1 => "\"stats\":{\"wc\": 42},",
                    2 => "the quick brown fox ",
                    3 => "数据处理 ",
                    4 => "\n",
                    5 => "aaaaaaaaaaaaaaa",
                    _ => "0123456789",
                });
            }
            roundtrip(s.as_bytes(), Codec::Djz);
        }
    }
}
