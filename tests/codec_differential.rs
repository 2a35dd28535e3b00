//! Differential oracle for the djz codec.
//!
//! `reference` keeps the codec as it was before it copied by the chunk —
//! the byte-at-a-time decoder and the encoder that probed every position —
//! verbatim, as the slow, obviously-right version of the same token format.
//! The fast codec is held to it both ways round:
//!
//! * every reference encoding decodes to the same bytes under both
//!   decoders, and the reference decoder inverts every new encoding;
//! * on token streams nobody encoded — random bodies, streams cut at every
//!   token boundary, offsets of 0 or past the output, declared sizes too
//!   small or too large — the two decoders accept exactly the same frames
//!   and agree on every accepted output (the new one refusing with a typed
//!   storage error, never a panic).
//!
//! The inputs aim at the copy paths: runs of every period from 1 to 17
//! (overlapping copies below the 16-byte chunk, chunked ones from it), runs
//! longer than a token can carry, repeats exactly at and one past the
//! window, random and all-zero buffers, and metadata-shaped header text.

use std::fmt::Write;

use proptest::prelude::*;
use proptest::TestRng;

use data_juicer::core::DjError;
use data_juicer::store::{compress, decompress, Codec};

/// The codec before chunked copies, kept verbatim (the frame header parse
/// and `max_raw_len` inlined from `dj-store`).
mod reference {
    use data_juicer::core::{DjError, Result};

    const MAGIC: &[u8; 3] = b"DJZ";

    pub const MIN_MATCH: usize = 4;
    pub const MAX_MATCH: usize = 127 + MIN_MATCH;
    pub const WINDOW: usize = 65535;
    const HASH_BITS: u32 = 15;

    pub fn max_raw_len(compressed_len: usize) -> u64 {
        (compressed_len as u64).saturating_mul(MAX_MATCH.div_ceil(3) as u64)
    }

    /// A djz frame of `data`.
    pub fn compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        out.extend_from_slice(MAGIC);
        out.push(2);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        djz_compress(data, &mut out);
        out
    }

    /// Decompress a djz frame.
    pub fn decompress(frame: &[u8]) -> Result<Vec<u8>> {
        if frame.len() < 12 || &frame[..3] != MAGIC || frame[3] != 2 {
            return Err(DjError::Storage("bad compression frame header".into()));
        }
        let expected = u64::from_le_bytes(frame[4..12].try_into().unwrap());
        let body = &frame[12..];
        if expected > max_raw_len(body.len()) {
            return Err(DjError::Storage(format!(
                "implausible decompressed size {expected} for {} bytes",
                body.len()
            )));
        }
        let expected = expected as usize;
        let out = djz_decompress(body, expected)?;
        if out.len() != expected {
            return Err(DjError::Storage(format!(
                "decompressed size mismatch: got {}, expected {expected}",
                out.len()
            )));
        }
        Ok(out)
    }

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
}

use reference::{MAX_MATCH, MIN_MATCH, WINDOW};

/// A djz frame header declaring `declared` bytes, then `body`.
fn frame(declared: u64, body: &[u8]) -> Vec<u8> {
    let mut out = b"DJZ\x02".to_vec();
    out.extend_from_slice(&declared.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Both decoders on `frame`: they must accept the same frames and agree on
/// what an accepted one holds. Returns the accepted bytes.
fn agree(what: &str, frame: &[u8]) -> Option<Vec<u8>> {
    match (decompress(frame), reference::decompress(frame)) {
        (Ok(new), Ok(old)) => {
            assert!(new == old, "{what}: the decoders disagree on the bytes");
            Some(new)
        }
        (Err(DjError::Storage(_)), Err(_)) => None,
        (new, old) => panic!(
            "{what}: new decoder {:?}, reference {:?} on a {}-byte frame starting {:02x?}",
            new.map(|b| b.len()),
            old.map(|b| b.len()),
            frame.len(),
            &frame[..frame.len().min(48)]
        ),
    }
}

/// Both encoders on `data`, each decoded by both decoders.
fn roundtrip(what: &str, data: &[u8]) {
    let new = compress(data, Codec::Djz);
    let old = reference::compress(data);
    for (encoder, frame) in [("new", &new), ("reference", &old)] {
        let back = agree(&format!("{what}, {encoder} encoding"), frame);
        assert!(
            back.as_deref() == Some(data),
            "{what}: the {encoder} encoding of {} bytes does not read back",
            data.len()
        );
    }
}

/// The token boundaries of a well-formed djz body, and the output length
/// reached at each.
fn boundaries(body: &[u8]) -> Vec<(usize, usize)> {
    let mut out = vec![(0, 0)];
    let (mut i, mut produced) = (0, 0);
    while i < body.len() {
        let t = body[i];
        if t & 0x80 == 0 {
            i += 1 + t as usize + 1;
            produced += t as usize + 1;
        } else {
            i += 3;
            produced += (t & 0x7F) as usize + MIN_MATCH;
        }
        out.push((i, produced));
    }
    out
}

fn random_bytes(rng: &mut TestRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// `len` bytes of a random `period`-byte pattern, between random bytes.
fn periodic(rng: &mut TestRng, period: usize, len: usize) -> Vec<u8> {
    let pattern = random_bytes(rng, period);
    let mut out = random_bytes(rng, 7);
    out.extend(pattern.iter().cycle().take(len));
    out.extend(random_bytes(rng, 5));
    out
}

/// Response headers and fetch logs like crawl metadata: half boilerplate,
/// half per-document numbers and hex.
fn header_text(rng: &mut TestRng, docs: usize) -> Vec<u8> {
    let mut s = String::new();
    for doc in 0..docs {
        let _ = write!(
            s,
            "https://host{}.example.org/doc/{doc} content-type: text/html; charset=utf-8; ",
            rng.below(5000)
        );
        for k in 0..24 {
            let _ = write!(
                s,
                "x-cache-node-{k}: HIT from edge-{}; etag-{k}: \"{:016x}\"; \
                 cache-control: public, max-age={}; ",
                rng.below(64),
                rng.next_u64(),
                rng.below(86_400)
            );
        }
        for k in 0..48 {
            let _ = write!(
                s,
                "fetch {doc} step {k}: took {} us at offset {}; ",
                rng.below(250_000),
                rng.below(1_000_000)
            );
        }
    }
    s.into_bytes()
}

#[test]
fn every_period_from_1_to_17_round_trips() {
    let mut rng = TestRng::from_name("periods");
    for period in 1..=17 {
        for len in [
            4,
            5,
            15,
            16,
            17,
            31,
            32,
            33,
            64,
            MAX_MATCH,
            MAX_MATCH + 1,
            1000,
        ] {
            roundtrip(
                &format!("period {period} × {len}"),
                &periodic(&mut rng, period, len),
            );
        }
    }
}

#[test]
fn runs_longer_than_a_token_round_trip() {
    let mut rng = TestRng::from_name("long runs");
    for len in [
        MAX_MATCH - 1,
        MAX_MATCH,
        MAX_MATCH + 1,
        MAX_MATCH + MIN_MATCH - 1,
        MAX_MATCH + MIN_MATCH,
        2 * MAX_MATCH,
        2 * MAX_MATCH + 3,
        70_000,
    ] {
        roundtrip(&format!("zero run of {len}"), &vec![0; len]);
        for period in [1, 3, 16, 40, 200] {
            roundtrip(
                &format!("period {period} run of {len}"),
                &periodic(&mut rng, period, len),
            );
        }
    }
    // A long run costs a token per `MAX_MATCH` bytes and nothing more.
    let zeros = vec![0; 100 * MAX_MATCH];
    let packed = compress(&zeros, Codec::Djz);
    assert!(packed.len() < 12 + 2 + 3 * 101, "{} bytes", packed.len());
}

#[test]
fn repeats_at_the_window_edge_round_trip() {
    let mut rng = TestRng::from_name("window");
    for distance in [WINDOW - 1, WINDOW, WINDOW + 1] {
        // A random block, zeros, then the block again `distance` bytes after
        // the first — or a fresh block, which nothing can match.
        let block = random_bytes(&mut rng, 300);
        let build = |second: &[u8]| {
            let mut data = block.clone();
            data.resize(distance, 0);
            data.extend_from_slice(second);
            data
        };
        let repeated = build(&block);
        let fresh = build(&random_bytes(&mut rng, 300));
        roundtrip(&format!("repeat at distance {distance}"), &repeated);
        roundtrip(&format!("no repeat at distance {distance}"), &fresh);
        // Both encoders find the repeat exactly when the window reaches it.
        let new: fn(&[u8]) -> Vec<u8> = |d| compress(d, Codec::Djz);
        for (encoder, encode) in [("new", new), ("reference", reference::compress)] {
            let saved = encode(&fresh).len() as i64 - encode(&repeated).len() as i64;
            assert_eq!(
                saved > 250,
                distance <= WINDOW,
                "{encoder} encoder, distance {distance}: {saved} bytes saved"
            );
        }
    }

    // A match token at the largest offset, with exactly that much output
    // behind it and with one byte less.
    let mut body = Vec::new();
    let noise = random_bytes(&mut rng, WINDOW);
    for run in noise.chunks(128) {
        body.push((run.len() - 1) as u8);
        body.extend_from_slice(run);
    }
    let mut at_edge = body.clone();
    at_edge.extend_from_slice(&[0x80 | (MAX_MATCH - MIN_MATCH) as u8, 0xff, 0xff]);
    let out = agree(
        "offset 65535",
        &frame((WINDOW + MAX_MATCH) as u64, &at_edge),
    );
    assert_eq!(
        out.as_deref().map(|o| &o[WINDOW..]),
        Some(&noise[..MAX_MATCH])
    );
    // The same noise one byte short (the last literal run's control byte
    // sits 128 bytes from the end), then a 4-byte match at 65535.
    let mut past = body[..body.len() - 1].to_vec();
    past[body.len() - 128] -= 1;
    past.extend_from_slice(&[0x80, 0xff, 0xff]);
    assert!(agree(
        "offset 65535 past the output",
        &frame(WINDOW as u64 + 3, &past)
    )
    .is_none());
}

#[test]
fn random_zero_and_header_buffers_round_trip() {
    let mut rng = TestRng::from_name("buffers");
    for len in [
        0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 127, 128, 129, 4096, 100_000,
    ] {
        roundtrip(&format!("{len} random"), &random_bytes(&mut rng, len));
        roundtrip(&format!("{len} zeros"), &vec![0; len]);
    }
    for docs in [1, 3, 40] {
        let text = header_text(&mut rng, docs);
        roundtrip(&format!("{docs} documents of headers"), &text);
        // Still a compressor: the new parse gives up little against the
        // old one's every-position probing.
        let (new, old) = (compress(&text, Codec::Djz), reference::compress(&text));
        assert!(
            new.len() as f64 <= 1.03 * old.len() as f64,
            "{docs} documents: {} bytes vs the reference's {}",
            new.len(),
            old.len()
        );
    }
}

/// Every match the format can hold, by hand: a random literal run, then one
/// match of every length at every offset up to past the chunk width.
#[test]
fn every_offset_and_length_decodes_like_the_reference() {
    let mut rng = TestRng::from_name("tokens");
    let prefix = random_bytes(&mut rng, 48);
    for offset in 1..=48u16 {
        for len in MIN_MATCH..=MAX_MATCH {
            let mut body = vec![47];
            body.extend_from_slice(&prefix);
            body.push(0x80 | (len - MIN_MATCH) as u8);
            body.extend_from_slice(&offset.to_le_bytes());
            // A second match right behind the first, over what it wrote.
            body.push(0x80 | (MAX_MATCH - len) as u8);
            body.extend_from_slice(&offset.to_le_bytes());
            let declared = 48 + MAX_MATCH + MIN_MATCH;
            let out = agree(
                &format!("offset {offset}, length {len}"),
                &frame(declared as u64, &body),
            );
            assert!(out.is_some(), "offset {offset}, length {len} refused");
        }
    }
}

/// Streams nobody encoded: both decoders accept the same ones.
#[test]
fn hostile_token_streams_are_refused_alike() {
    let mut rng = TestRng::from_name("hostile");
    // Well-formed streams, cut at every token boundary and one byte either
    // side, each under a declared size that fits, one too small, one too
    // large, zero and the plausibility ceiling.
    let mut streams: Vec<Vec<u8>> = Vec::new();
    for period in [1, 5, 16, 23] {
        streams.push(periodic(&mut rng, period, 600));
    }
    streams.push(header_text(&mut rng, 1));
    streams.push(random_bytes(&mut rng, 300));
    for data in &streams {
        for packed in [compress(data, Codec::Djz), reference::compress(data)] {
            let body = &packed[12..];
            for (cut, produced) in boundaries(body) {
                for cut in [cut.saturating_sub(1), cut, cut + 1] {
                    let cut = cut.min(body.len());
                    let ceiling = reference::max_raw_len(cut);
                    for declared in [
                        produced as u64,
                        produced.saturating_sub(1) as u64,
                        produced as u64 + 1,
                        0,
                        ceiling,
                        ceiling + 1,
                    ] {
                        agree(
                            &format!("cut at {cut}, declared {declared}"),
                            &frame(declared, &body[..cut]),
                        );
                    }
                }
            }
        }
    }

    // Random bodies: raw bytes, and token soup with offsets of 0, inside
    // the output, just past it and far past it.
    let mut accepted = 0;
    for round in 0..20_000 {
        let body = if round % 4 == 0 {
            let n = rng.below(64) as usize;
            random_bytes(&mut rng, n)
        } else {
            let mut body = Vec::new();
            let mut produced = 0usize;
            for _ in 0..rng.below(12) {
                if produced == 0 || rng.below(3) == 0 {
                    let n = 1 + rng.below(40) as usize;
                    body.push((n - 1) as u8);
                    body.extend(random_bytes(&mut rng, n));
                    produced += n;
                } else {
                    let len = MIN_MATCH + rng.below(128) as usize;
                    let offset = match rng.below(8) {
                        0 => 0,
                        1 => produced + 1,
                        2 => rng.below(1 << 16) as usize,
                        _ => 1 + rng.below(produced as u64) as usize,
                    };
                    body.push(0x80 | (len - MIN_MATCH) as u8);
                    body.extend_from_slice(&(offset as u16).to_le_bytes());
                    produced += len;
                }
            }
            body
        };
        let produced = boundaries(&body).last().map_or(0, |&(_, p)| p);
        let declared = match rng.below(4) {
            0 => rng.below(2 * produced as u64 + 2),
            1 => produced as u64 + 1,
            2 => produced.saturating_sub(1) as u64,
            _ => produced as u64,
        };
        if agree(&format!("round {round}"), &frame(declared, &body)).is_some() {
            accepted += 1;
        }
    }
    // The soup is not all refused: accepted streams are compared too.
    assert!(accepted > 1000, "only {accepted} streams accepted");
}

proptest! {
    #[test]
    fn prop_any_bytes_round_trip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        roundtrip("random bytes", &data);
    }

    #[test]
    fn prop_few_symbol_bytes_round_trip(data in proptest::collection::vec(0u8..3, 0..4096)) {
        roundtrip("three symbols", &data);
    }
}
