//! Bytes we did not write: one seeded, structure-aware mutation loop over
//! everything that opens sealed bytes — `envelope::open`, `Frame::parse` and
//! every operation on the parsed (`DJSC`) frame, the `frames` part readers
//! (`FrameSlab` and the `Read` adapter, the row `DJSF` parser's entry
//! points), the spool's reads and the `DJFP` sidecar reader. A row frame
//! is never a spill or cache frame: `Frame::parse` and every spool read
//! refuse it with a typed error.
//!
//! Whatever the input — flipped bits, truncation at every header boundary,
//! length-prefix bombs (a length, count or size field claiming far more than
//! the input holds), trailing bytes, swapped magics, a columnar directory
//! pointing out of bounds, and the same damage *behind a valid checksum*
//! (the payload is mutated, then re-sealed) — a parser may only
//!
//! * return `Ok`, or a typed `DjError::Storage` (`DjError::Field` for the
//!   one well-formed frame of ill-formed samples: a root that is not a map);
//! * never panic;
//! * never make an allocation larger than a bound derived from the input
//!   length: a claimed size is not a reason to allocate.
//!
//! Damage under the envelope's checksum (no re-seal) must always be
//! *refused*: a single flipped bit never reads back as data.
//!
//! Its own test binary: the size-tracking allocator is global (the high-water
//! mark is per thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use proptest::TestRng;

use data_juicer::core::{Dataset, DjError, Fingerprints, Sample, Value, MAX_NESTING_DEPTH};
use data_juicer::hash::checksum64;
use data_juicer::store::{
    compress, decompress, encode_columnar_frame, encode_shard_frame, envelope, read_shard_frame,
    seal_fingerprints, to_jsonl, Codec, ColumnarSlab, Frame, FrameSlab, ShardSpool,
    COLUMNAR_FRAME_MAGIC, FINGERPRINT_MAGIC, SHARD_FRAME_MAGIC,
};

thread_local! {
    /// Largest single request this thread made of the allocator since the
    /// last reset. No destructor, so tracking stays valid through teardown.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Tracking;

fn note(size: usize) {
    let _ = LARGEST.try_with(|max| max.set(max.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; tracking touches only
// a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above; `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// The largest allocation `len` input bytes may cause. The factor covers the
/// legitimate amplification chain (a djz match token expands 44×, a one-byte
/// value decodes to a 32-byte `Value`); the constant covers the one count no
/// input length bounds, a column-less columnar frame's (capped at 2²⁰).
fn allocation_bound(len: usize) -> usize {
    2048 * len + (64 << 20)
}

fn shard() -> Dataset {
    let mut ds = Dataset::new();
    for i in 0..6 {
        let mut s = Sample::from_text(format!("hostile   frames sample {i} — ünïcødé {}", i % 3));
        s.set_meta("lang", if i % 2 == 0 { "en" } else { "zh" });
        s.set_meta("tags", Value::from(vec!["a", "b"]));
        s.set_stat("wc", i as f64);
        ds.push(s);
    }
    ds.push(Sample::new());
    ds
}

const MASK: [bool; 7] = [true, false, true, true, false, true, false];

/// Who accepted the bytes they were fed.
struct Accepted {
    /// `Frame::parse` or the `frames` part reader: they are one shard frame.
    frame: bool,
    /// `ShardSpool::read_fingerprints`: they are one fingerprint sidecar.
    sidecar: bool,
}

/// Everything that opens sealed bytes, fed `bytes`.
fn feed(spool: &ShardSpool, bytes: &[u8]) -> Accepted {
    let text: BTreeSet<String> = ["text".to_string()].into();
    let mut results: Vec<Result<(), DjError>> = Vec::new();

    // The envelope itself, walked as a concatenation.
    let mut rest = bytes;
    results.push(loop {
        match envelope::open(rest) {
            Ok((_, _, [])) => break Ok(()),
            Ok((_, _, tail)) => rest = tail,
            Err(e) => break Err(e),
        }
    });

    // One spill or cache frame, and every operation on it.
    let parsed = Frame::parse(bytes);
    let mut frame = parsed.is_ok();
    let row = bytes.starts_with(SHARD_FRAME_MAGIC);
    match parsed {
        Ok(_) if row => panic!("a row frame parsed as a spill frame"),
        Ok(frame) => {
            assert!(frame.sample_count() <= allocation_bound(bytes.len()));
            results.push(frame.decode(None, None).map(drop));
            results.push(frame.decode(Some(&text), Some(&MASK)).map(drop));
            results.push(frame.with_texts("meta.lang", |t| Ok(t.len())).map(drop));
            results.push(frame.write_jsonl(None, &mut String::new()).map(drop));
            results.push(frame.write_jsonl(Some(&MASK), &mut String::new()).map(drop));
        }
        Err(e) => results.push(Err(e)),
    }
    // One `frames` output part: the row parser's two entry points.
    let part = FrameSlab::from_frame_bytes(bytes).and_then(|slab| slab.decode());
    let mut stream = bytes;
    let read_back = read_shard_frame(&mut stream);
    frame |= part.is_ok();
    results.push(part.map(drop));
    results.push(read_back.map(drop));
    results.push(ColumnarSlab::from_frame_bytes(bytes).map(drop));

    // As a spool slot: the checked reads, byte-copying ones included.
    spool.write_frame_bytes(0, bytes, MASK.len()).unwrap();
    let mut slot = vec![spool.read(0).map(drop)];
    for keep in [None, Some(&MASK[..])] {
        slot.push(spool.read_frame_bytes(0, keep).map(drop));
        slot.push(spool.read_row_frame_bytes(0, keep).map(drop));
    }
    if row {
        for read in &slot {
            assert!(
                matches!(read, Err(DjError::Storage(_))),
                "row slot: {read:?}"
            );
        }
    }
    results.extend(slot);

    // As a fingerprint sidecar: alone, and as the set a barrier would take
    // (ignored whole unless it describes the slot's samples one for one).
    std::fs::write(spool.dir().join("shard-00000.fpr"), bytes).unwrap();
    let fingerprints = spool.read_fingerprints(0);
    let sidecar = fingerprints.is_ok();
    let set = spool.read_all_fingerprints(&[MASK.len()]);
    if let (Ok(one), Ok(set)) = (&fingerprints, &set) {
        let usable = one.as_ref().filter(|fp| fp.len() == MASK.len());
        assert_eq!(set.as_ref(), usable, "a sidecar set of the wrong count");
        // Whatever was accepted is safe to walk.
        let walked: usize = one.iter().flat_map(|fp| fp.iter()).map(<[u64]>::len).sum();
        assert_eq!(walked, one.as_ref().map_or(0, |fp| fp.words().len()));
    }
    results.push(fingerprints.map(drop));
    results.push(set.map(drop));

    for result in results {
        match result {
            Ok(()) | Err(DjError::Storage(_)) | Err(DjError::Field(_)) => {}
            Err(other) => panic!("untyped error: {other:?}"),
        }
    }
    Accepted { frame, sidecar }
}

/// [`feed`] under the guards: no panic, no oversized allocation. Returns
/// whether anyone accepted the bytes.
fn check(spool: &ShardSpool, what: &str, bytes: &[u8]) -> bool {
    LARGEST.with(|max| max.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| feed(spool, bytes)));
    let largest = LARGEST.with(Cell::get);
    let accepted = outcome.unwrap_or_else(|_| panic!("{what}: a parser panicked on {bytes:02x?}"));
    assert!(
        !(accepted.frame && accepted.sidecar),
        "{what}: two parsers took the same bytes"
    );
    assert!(
        largest <= allocation_bound(bytes.len()),
        "{what}: a {largest}-byte allocation for {} input bytes: {bytes:02x?}",
        bytes.len()
    );
    accepted.frame || accepted.sidecar
}

fn with_u64(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if at + 8 <= out.len() {
        out[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }
    out
}

/// A size no input here comes near.
fn bomb(rng: &mut TestRng) -> u64 {
    match rng.below(5) {
        0 => u64::MAX,
        1 => (1 << 40) + 1,
        2 => 1 << 39,
        3 => 1 << 32,
        _ => (1 << 27) + rng.below(1 << 20),
    }
}

/// One structure-aware mutation of a frame payload (the bytes behind the
/// envelope); the caller re-seals it, so it reaches the inner parsers.
fn mutate_payload(rng: &mut TestRng, magic: &[u8; 4], payload: &[u8]) -> (String, Vec<u8>) {
    let mut out = payload.to_vec();
    let pick = rng.below(7);
    let what = match pick {
        0 if !out.is_empty() => {
            let at = rng.below(out.len() as u64) as usize;
            out[at] ^= 1 << rng.below(8);
            format!("payload bit flip @{at}")
        }
        1 => {
            let cut = rng.below(out.len() as u64 + 1) as usize;
            out.truncate(cut);
            format!("payload cut to {cut}")
        }
        // A sidecar payload is a sample count, that many `u32` end offsets,
        // and `u64` words: offsets out of order or past the words, a count
        // off by a few (the words then start mid-offset), a count bomb.
        2 | 3 if magic == FINGERPRINT_MAGIC => {
            let count = (out.len() as u64).saturating_sub(8) / 4;
            let at = 8 + 4 * rng.below(count.max(1)) as usize;
            match rng.below(3) {
                0 if at + 4 <= out.len() => {
                    let end = [0, 1, 5, rng.next_u64() as u32][rng.below(4) as usize];
                    out[at..at + 4].copy_from_slice(&end.to_le_bytes());
                    format!("end offset @{at} = {end}")
                }
                1 => {
                    let claimed = rng.below(2 * count + 2);
                    out = with_u64(&out, 0, claimed);
                    format!("sample count {claimed}")
                }
                _ => {
                    out = with_u64(&out, 0, bomb(rng));
                    "sample count bomb".to_string()
                }
            }
        }
        // The first words of either frame payload are sizes: a row
        // payload's codec header (magic, id, raw length), a columnar
        // payload's version, sample count and column count.
        2 => {
            let at = [1, 4, 9][rng.below(3) as usize];
            out = with_u64(&out, at, bomb(rng));
            format!("size bomb @{at}")
        }
        // A columnar directory entry's words (offset, length, raw length,
        // checksum) sit after its name; aim at the first entries.
        3 if magic == COLUMNAR_FRAME_MAGIC => {
            let at = 13 + rng.below(96.min(out.len() as u64).max(1)) as usize;
            let value = if rng.below(2) == 0 {
                bomb(rng)
            } else {
                rng.below(out.len() as u64 * 2 + 1)
            };
            out = with_u64(&out, at, value);
            format!("directory word @{at} = {value}")
        }
        // The serialized samples inside a row payload: counts and length
        // prefixes of the tagged-value encoding.
        4 | 5 if magic == SHARD_FRAME_MAGIC => match decompress(&out) {
            Ok(mut inner) => {
                let what = if pick == 4 || inner.len() < 9 {
                    let cut = rng.below(inner.len() as u64 + 1) as usize;
                    inner.truncate(cut);
                    format!("samples cut to {cut}")
                } else if rng.below(2) == 0 {
                    inner = with_u64(&inner, 1, bomb(rng));
                    "sample count bomb".to_string()
                } else {
                    let at = 9 + rng.below((inner.len() - 9).max(1) as u64) as usize;
                    if at + 4 <= inner.len() {
                        inner[at..at + 4].copy_from_slice(&(bomb(rng) as u32).to_le_bytes());
                    }
                    format!("length prefix bomb @{at}")
                };
                out = compress(&inner, Codec::None);
                what
            }
            Err(_) => "unreadable row payload".to_string(),
        },
        _ => {
            out.extend((0..rng.below(9)).map(|_| rng.next_u64() as u8));
            "payload tail".to_string()
        }
    };
    (what, out)
}

#[test]
fn no_parser_panics_overallocates_or_lets_damage_through() {
    let dir = std::env::temp_dir().join(format!("dj-hostile-frames-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spool = ShardSpool::create(&dir, 1, Codec::Djz).unwrap();
    let ds = shard();
    // One run per sample of `shard()`: MASK.len() of them, an empty one too.
    let mut fingerprints = Fingerprints::new();
    for i in 0..MASK.len() as u64 {
        let words: Vec<u64> = (0..i % 4).map(|w| i * 31 + w).collect();
        fingerprints.push(&words).unwrap();
    }
    let seeds: Vec<(&[u8; 4], Vec<u8>)> = vec![
        (SHARD_FRAME_MAGIC, encode_shard_frame(&ds, Codec::None)),
        (SHARD_FRAME_MAGIC, encode_shard_frame(&ds, Codec::Djz)),
        (
            COLUMNAR_FRAME_MAGIC,
            encode_columnar_frame(&ds, Codec::None),
        ),
        (COLUMNAR_FRAME_MAGIC, encode_columnar_frame(&ds, Codec::Djz)),
        (
            COLUMNAR_FRAME_MAGIC,
            encode_columnar_frame(&Dataset::new(), Codec::Djz),
        ),
        (FINGERPRINT_MAGIC, seal_fingerprints(&fingerprints)),
    ];

    // The sweeps: every seed as it is, cut at every header boundary and a
    // byte either side, under every magic, with every length-field bomb.
    for (magic, sealed) in &seeds {
        assert!(check(&spool, "seed", sealed), "{magic:?} seed refused");
        let n = sealed.len();
        for cut in [0, 1, 3, 4, 5, 11, 12, 13, 19, 20, 21, n / 2, n - 1] {
            let accepted = check(&spool, &format!("cut at {cut}"), &sealed[..cut]);
            assert!(!accepted, "{magic:?} cut at {cut} of {n} was accepted");
        }
        for other in [
            SHARD_FRAME_MAGIC,
            COLUMNAR_FRAME_MAGIC,
            FINGERPRINT_MAGIC,
            b"\0\0\0\0",
        ] {
            // The checksum does not cover the magic: a swap hands a payload
            // to the wrong parser, which must refuse it on its own.
            let mut swapped = sealed.clone();
            swapped[..4].copy_from_slice(other);
            let accepted = check(&spool, "swapped magic", &swapped);
            assert_eq!(accepted, other == *magic, "{magic:?} as {other:?}");
        }
        for len in [
            u64::MAX,
            (1 << 40) + 1,
            1 << 40,
            1 << 32,
            n as u64,
            n as u64 - 19,
        ] {
            // Under the current version byte, so the length itself is judged.
            let word = len & ((1 << 56) - 1) | u64::from(envelope::VERSION) << 56;
            let accepted = check(&spool, "length bomb", &with_u64(sealed, 4, word));
            assert!(!accepted, "length {len} accepted for {n} sealed bytes");
        }
        // A torn write that zeroes the checksum and the payload but leaves
        // magic and length standing: the envelope refuses it, whatever the
        // payload parsers would make of zeros.
        let mut torn = sealed.clone();
        torn[12..].fill(0);
        assert!(envelope::open(&torn).is_err(), "{magic:?} zeroed");
        assert!(!check(&spool, "zeroed checksum and payload", &torn));
        // Another envelope version: 0 is the FNV-1a envelope of earlier
        // releases, the rest are unknown.
        for version in [0, 2, 0xff] {
            let mut other = sealed.clone();
            other[11] = version;
            assert!(!check(&spool, "envelope version", &other), "{version}");
        }
        let mut trailing = sealed.clone();
        trailing.push(0);
        assert!(!check(&spool, "trailing byte", &trailing));
        let mut doubled = sealed.clone();
        doubled.extend_from_slice(sealed);
        assert!(!check(&spool, "two frames where one belongs", &doubled));
    }

    // The loop: seeded, so a failure replays; time-boxed, so it stays in the
    // default test pass.
    let mut rng = TestRng::from_name("hostile_frames");
    let start = Instant::now();
    let mut rounds = 0u32;
    while rounds < 400 || (rounds < 20_000 && start.elapsed() < Duration::from_secs(4)) {
        rounds += 1;
        let (magic, sealed) = &seeds[rng.below(seeds.len() as u64) as usize];
        if rng.below(3) == 0 {
            // Damage under the checksum: always refused.
            let mut bad = sealed.clone();
            let at = rng.below(bad.len() as u64) as usize;
            bad[at] ^= 1 << rng.below(8);
            let accepted = check(&spool, "bit flip", &bad);
            // (No two of the magics are one bit apart, so a flip inside
            // one never lands on another.)
            assert!(!accepted, "{magic:?} bit flip @{at} read back as data");
        } else {
            // Damage behind a valid checksum: the inner parsers' turn.
            let (_, payload) = envelope::open_one(sealed).unwrap();
            let (what, mutated) = mutate_payload(&mut rng, magic, payload);
            check(&spool, &what, &envelope::seal(magic, &mutated));
        }
    }
    drop(spool);
    assert!(!dir.exists());
}

/// One sample whose `text` is `lists` nested lists around a `null`.
fn nested_sample(lists: usize) -> Dataset {
    let mut text = Value::Null;
    for _ in 0..lists {
        text = Value::List(vec![text]);
    }
    let mut sample = Sample::new();
    sample.value_mut().set_path("text", text).unwrap();
    Dataset::from_samples(vec![sample])
}

/// A sealed one-sample columnar frame with the single column `name` whose
/// (uncompressed) region is `body`.
fn one_column_frame(name: &str, body: &[u8]) -> Vec<u8> {
    let region = compress(body, Codec::None);
    let mut payload = vec![1u8];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
    payload.extend_from_slice(name.as_bytes());
    let words = [
        0,
        region.len() as u64,
        body.len() as u64,
        checksum64(&region),
    ];
    words
        .iter()
        .for_each(|w| payload.extend_from_slice(&w.to_le_bytes()));
    payload.extend_from_slice(&region);
    envelope::seal(COLUMNAR_FRAME_MAGIC, &payload)
}

/// Nesting behind a valid checksum. The tagged-value decoders recurse once
/// per level, so without a limit a deep enough payload overflows the stack
/// — an abort no `catch_unwind` sees. A sample may nest `MAX_NESTING_DEPTH`
/// levels, its root object included (the JSON text limit), in a spill
/// frame and in a `frames` part; one level more, or 200 000, is a typed
/// storage error from every decoder.
#[test]
fn a_nesting_bomb_behind_a_valid_checksum_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("dj-hostile-nesting-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spool = ShardSpool::create(&dir, 1, Codec::Djz).unwrap();
    fn refused<T: std::fmt::Debug>(result: Result<T, DjError>, what: &str) {
        assert!(
            matches!(result, Err(DjError::Storage(_))),
            "{what}: {result:?}"
        );
    }

    for (lists, fits) in [(MAX_NESTING_DEPTH - 1, true), (MAX_NESTING_DEPTH, false)] {
        let ds = nested_sample(lists);
        let sealed = encode_columnar_frame(&ds, Codec::Djz);
        check(&spool, "nesting at the limit", &sealed);
        let frame = Frame::parse(&sealed).unwrap();
        let decoded = frame.decode(None, None).map(|(d, _)| d);
        let mut printed = String::new();
        let written = frame.write_jsonl(None, &mut printed);
        let part = encode_shard_frame(&ds, Codec::Djz);
        check(&spool, "nesting at the limit", &part);
        let read_back = read_shard_frame(&mut part.as_slice()).map(Option::unwrap);
        if fits {
            assert_eq!(decoded.unwrap(), ds, "{lists} lists");
            written.unwrap();
            assert_eq!(printed, to_jsonl(&ds), "{lists} lists");
            assert_eq!(read_back.unwrap(), ds, "{lists} lists");
        } else {
            refused(decoded, "decode one level past");
            refused(written, "transcode one level past");
            refused(read_back, "read back one level past");
        }
    }

    // 200 000 levels, written as bytes: a `Value` that deep could not even
    // be dropped without recursing. As a spill frame's `text` column ...
    let mut deep = Vec::new();
    for _ in 0..200_000 {
        deep.push(6); // a list of one item
        deep.extend_from_slice(&1u32.to_le_bytes());
    }
    deep.push(0); // null
    let sealed = one_column_frame("text", &[&[1u8][..], &deep].concat());
    check(&spool, "nesting bomb", &sealed);
    let frame = Frame::parse(&sealed).unwrap();
    refused(frame.decode(None, None), "decode");
    refused(frame.write_jsonl(None, &mut String::new()), "transcode");
    refused(frame.with_texts("text.x", |t| Ok(t.len())), "skip");
    // ... and as a `frames` part's one sample.
    let mut payload = vec![1u8];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(7); // map of one entry: "text" →
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&4u32.to_le_bytes());
    payload.extend_from_slice(b"text");
    payload.extend_from_slice(&deep);
    let sealed = envelope::seal(SHARD_FRAME_MAGIC, &compress(&payload, Codec::None));
    check(&spool, "nesting bomb", &sealed);
    refused(read_shard_frame(&mut sealed.as_slice()), "read back");
    refused(
        FrameSlab::from_frame_bytes(&sealed).and_then(|slab| slab.decode()),
        "decode a part",
    );
    drop(spool);
    assert!(!dir.exists());
}
