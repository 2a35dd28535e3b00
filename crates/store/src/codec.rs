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
//!
//! "Negligible" is held to memory speed, in safe code. The decoder makes
//! one allocation — the declared size plus 16 bytes of slack — copies a
//! literal run with one `copy_from_slice` and a match 16 bytes at a time
//! (a match closer than that repeats its period by doubling copies), and
//! refuses a token that would write past the declared size at that token.
//! The encoder keeps `u32` hints in its table, extends a match 8 bytes per
//! compare, continues a run longer than a token can carry at the same
//! offset without a new probe, and widens its step over incompressible
//! stretches. Its output is a pure function of its input; the token format
//! is the one every earlier encoder wrote, so every frame they wrote still
//! decodes (`tests/codec_differential.rs` holds both halves to the
//! byte-at-a-time codec they replaced).

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

/// Compress `data` into a self-describing frame, in a buffer allocated
/// once, for the worst case (`compress_bound`), so it never reallocates
/// midway.
pub fn compress(data: &[u8], codec: Codec) -> Vec<u8> {
    let mut out = Vec::with_capacity(compress_bound(data.len()));
    out.extend_from_slice(MAGIC);
    out.push(codec.id());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    match codec {
        Codec::None => out.extend_from_slice(data),
        Codec::Djz => djz_compress(data, &mut out, &mut vec![0; 1 << HASH_BITS]),
    }
    out
}

/// The most bytes a frame of `len` input bytes takes: literals cost one
/// control byte per 128, and a djz match token (3 bytes standing for at
/// least 4) pays for the control byte of the literal run it cuts.
fn compress_bound(len: usize) -> usize {
    12 + len + len / 128 + 1
}

/// The most bytes `compressed_len` bytes can decompress to: the densest
/// token is a 3-byte djz match standing for [`MAX_MATCH`] bytes. A length
/// field claiming more is damage, and nothing is allocated on its word.
fn max_raw_len(compressed_len: usize) -> u64 {
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
    let mut out = Vec::new();
    match codec {
        Codec::None => out.extend_from_slice(body),
        Codec::Djz => djz_decompress(body, expected, &mut out)?,
    }
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

/// The decoder's copy width: a match at least this far back is copied in
/// chunks of this many bytes (each chunk's source is written before it is
/// read).
const CHUNK: usize = 16;

/// Room the decoder's output has past the declared size, for the last
/// chunk of a match, which may run past the match's end.
const SLACK: usize = CHUNK;

/// Over an incompressible stretch the encoder's step between probes grows
/// by one every this many misses in a row.
const SKIP_STRIDE: usize = 32;

#[inline]
fn load32(data: &[u8], at: usize) -> u32 {
    let mut word = [0; 4];
    word.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(word)
}

#[inline]
fn load64(data: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(word)
}

#[inline]
fn djz_hash(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// How many bytes `data[a..]` and `data[b..]` share from their start
/// (`a < b`), compared a word at a time.
#[inline]
fn common_len(data: &[u8], a: usize, b: usize) -> usize {
    let limit = data.len() - b;
    let mut l = 0;
    while l + 8 <= limit {
        let diff = load64(data, a + l) ^ load64(data, b + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// `table` holds `1 << HASH_BITS` zeros on entry.
fn djz_compress(data: &[u8], out: &mut Vec<u8>, table: &mut [u32]) {
    // Each slot holds the last position whose first four bytes hashed
    // there, as a `u32`: only a hint, which the 4-byte compare verifies, so
    // one that wrapped past 4 GiB costs a miss, never a wrong match.
    let mut i = 0;
    let mut lit_start = 0;
    let mut misses = 0;
    while i + MIN_MATCH <= data.len() {
        let word = load32(data, i);
        let slot = &mut table[djz_hash(word)];
        let offset = (i as u32).wrapping_sub(*slot) as usize;
        *slot = i as u32;
        if offset == 0 || offset > WINDOW.min(i) || load32(data, i - offset) != word {
            misses += 1;
            i += 1 + misses / SKIP_STRIDE;
            continue;
        }
        misses = 0;
        flush_djz_literals(&data[lit_start..i], out);
        // One probe, however long the run: past `MAX_MATCH` it continues as
        // the next token at the same offset. A tail too short for a token is
        // left to the next probe.
        let mut len = MIN_MATCH + common_len(data, i - offset + MIN_MATCH, i + MIN_MATCH);
        while len >= MIN_MATCH {
            let n = len.min(MAX_MATCH);
            out.push(0x80 | (n - MIN_MATCH) as u8);
            out.extend_from_slice(&(offset as u16).to_le_bytes());
            i += n;
            len -= n;
        }
        // One insert for the whole match: the word straddling its end.
        if i + 2 <= data.len() {
            table[djz_hash(load32(data, i - 2))] = (i - 2) as u32;
        }
        lit_start = i;
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

/// Expand a djz body into `out` (empty on entry): at most `expected` bytes,
/// fewer only if the body ends early, which [`decompress`] refuses.
fn djz_decompress(body: &[u8], expected: usize, out: &mut Vec<u8>) -> Result<()> {
    out.resize(expected + SLACK, 0);
    let mut pos = 0;
    let mut i = 0;
    while i < body.len() {
        let t = body[i];
        i += 1;
        if t & 0x80 == 0 {
            let n = t as usize + 1;
            if n > expected - pos {
                return Err(overrun(expected));
            }
            let Some(lits) = body.get(i..i + n) else {
                return Err(DjError::Storage("djz: truncated literal run".into()));
            };
            out[pos..pos + n].copy_from_slice(lits);
            i += n;
            pos += n;
        } else {
            let Some(&[lo, hi]) = body.get(i..i + 2) else {
                return Err(DjError::Storage("djz: truncated match token".into()));
            };
            let len = (t & 0x7F) as usize + MIN_MATCH;
            let offset = u16::from_le_bytes([lo, hi]) as usize;
            i += 2;
            if offset == 0 || offset > pos {
                return Err(DjError::Storage("djz: invalid match offset".into()));
            }
            if len > expected - pos {
                return Err(overrun(expected));
            }
            copy_match(out, pos, offset, len);
            pos += len;
        }
    }
    out.truncate(pos);
    Ok(())
}

fn overrun(expected: usize) -> DjError {
    DjError::Storage(format!(
        "djz: token writes past the declared size {expected}"
    ))
}

/// Write the `len` bytes of a match at `pos`: byte k is byte k − `offset`,
/// which the match itself may have written. `out` has [`SLACK`] bytes of
/// room past `pos + len`.
#[inline]
fn copy_match(out: &mut [u8], pos: usize, offset: usize, len: usize) {
    let src = pos - offset;
    if offset >= CHUNK {
        let mut k = 0;
        while k < len {
            out.copy_within(src + k..src + k + CHUNK, pos + k);
            k += CHUNK;
        }
    } else {
        // The match repeats the `offset` bytes before `pos`. Whatever has
        // been copied so far is a whole number of periods, so copying it
        // again (with the period before it) continues the pattern.
        let mut done = 0;
        while done < len {
            let n = (offset + done).min(len - done);
            out.copy_within(src..src + n, pos + done);
            done += n;
        }
    }
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
        // A token that would write past the declared size is refused at
        // that token, not after the body has been expanded.
        let mut long = compress(&[7; 64], Codec::Djz);
        long[4..12].copy_from_slice(&8u64.to_le_bytes());
        let err = decompress(&long).unwrap_err();
        assert!(err.to_string().contains("past the declared size"), "{err}");
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
