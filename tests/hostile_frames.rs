//! Bytes we did not write: one seeded, structure-aware mutation loop over
//! everything that opens sealed bytes — the envelope
//! (`envelope::open_one`), `Frame::parse` and every operation on the parsed
//! (`DJSC`) frame, tagged (demoted) and raw JSON columns alike, the row
//! `DJSF` parser (`FrameSlab`, public while djbench's probes use it), the
//! spool's reads, and a cache entry's seal record (`DJES`:
//! `open_seal_record`, and the entry opened through it with every slot
//! read). A row frame is never a spill or cache frame: `Frame::parse` and
//! every spool read refuse it with a typed error.
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

use data_juicer::core::{Dataset, DjError, RawColumns, Sample, Value, MAX_NESTING_DEPTH};
use data_juicer::store::{
    compress, decompress, encode_columnar_frame, encode_shard_frame, envelope, open_seal_record,
    to_jsonl, BufferPool, CacheManager, CacheMode, Codec, ColumnarSlab, Frame, FrameSlab,
    ShardSpool, COLUMNAR_FRAME_MAGIC, ENTRY_SEAL_MAGIC, SHARD_FRAME_MAGIC,
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

/// [`shard`] with a NaN stat in one sample: a frame stores every column as
/// JSON text but `stats`, which the NaN demotes to tagged values. The
/// tagged decoder is reached through such a column only.
fn demoted_frame(codec: Codec) -> Vec<u8> {
    let mut ds = shard();
    ds.samples_mut()[2].set_stat("nan", f64::NAN);
    let sealed = encode_columnar_frame(&ds, codec);
    let slab = ColumnarSlab::from_frame_bytes(&sealed).unwrap();
    assert!(!slab.is_raw_json("stats") && slab.is_raw_json("text"));
    sealed
}

/// [`shard`] as a file run stores it: `text` parsed, the rest raw JSON
/// text, the samples [`MASK`] drops stored without entries. Sealed bytes,
/// as a spool slot holds them.
fn ingested_frame(dir: &std::path::Path) -> Vec<u8> {
    let mut raw = RawColumns::new();
    let mut samples = Dataset::new();
    for s in shard().iter() {
        let mut root = s.value().clone();
        raw.take_inert(&mut root, |key| key == "text");
        raw.close();
        samples.push(Sample::from_value(root).unwrap());
    }
    let mut processed = samples.clone();
    processed.retain_mask(&MASK);
    let spool = ShardSpool::create(dir.join("ingest"), 1).unwrap();
    spool.write_ingested(0, &processed, &raw, &MASK).unwrap();
    std::fs::read(spool.dir().join("shard-00000.djs")).unwrap()
}

/// What the parsers are fed through: a spool slot, and a sealed cache
/// entry of two slots whose seal record is replaced.
struct Targets {
    spool: ShardSpool,
    cache: CacheManager,
    entry: std::path::PathBuf,
}

/// The entry key [`Targets::cache`] holds.
const KEY: u64 = 1;

impl Targets {
    fn new(dir: &std::path::Path) -> Targets {
        let _ = std::fs::remove_dir_all(dir);
        let cache = CacheManager::new(dir.join("cache"), CacheMode::Cache);
        let mut entry = cache.new_entry(KEY, &BufferPool::default()).unwrap();
        for (i, half) in shard().into_shards(2).iter().enumerate() {
            entry.write_shard(i, half).unwrap();
        }
        cache.seal(&mut entry, KEY, None).unwrap();
        Targets {
            spool: ShardSpool::create(dir.join("spool"), 1).unwrap(),
            entry: entry.dir().to_path_buf(),
            cache,
        }
    }

    /// The entry's sound seal record.
    fn seal(&self) -> Vec<u8> {
        std::fs::read(self.entry.join("entry.seal")).unwrap()
    }
}

/// Everything that opens sealed bytes, fed `bytes`. Returns whether
/// `Frame::parse`, the row frame parser or the seal record parser
/// accepted them as one shard frame or one seal record.
fn feed(targets: &Targets, bytes: &[u8]) -> bool {
    let spool = &targets.spool;
    let text: BTreeSet<String> = ["text".to_string()].into();
    let mut results: Vec<Result<(), DjError>> = Vec::new();

    // The envelope itself.
    results.push(envelope::open_one(bytes).map(drop));

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
    // One row frame, read whole.
    let part = FrameSlab::from_frame_bytes(bytes).and_then(|slab| slab.decode());
    frame |= part.is_ok();
    results.push(part.map(drop));
    results.push(ColumnarSlab::from_frame_bytes(bytes).map(drop));

    // A cache entry's seal record, alone and as the seal of an entry whose
    // every slot is then read the way a resume reads it.
    let seal = open_seal_record(bytes);
    frame |= seal.is_ok();
    results.push(seal.map(drop));
    if bytes.starts_with(ENTRY_SEAL_MAGIC) {
        std::fs::write(targets.entry.join("entry.seal"), bytes).unwrap();
        match targets.cache.latest_match(&[KEY], &BufferPool::default()) {
            Ok(Some((_, entry))) => {
                results.extend((0..entry.shard_count()).map(|i| entry.read(i).map(drop)));
            }
            Ok(None) => panic!("the entry vanished"),
            Err(e) => results.push(Err(e)),
        }
    }

    // As a spool slot: the checked reads, byte-copying ones included.
    spool.write_frame_bytes(0, bytes, MASK.len()).unwrap();
    let mut slot = vec![spool.read(0).map(drop)];
    for keep in [None, Some(&MASK[..])] {
        slot.push(spool.read_frame_bytes(0, keep).map(drop));
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

    for result in results {
        match result {
            Ok(()) | Err(DjError::Storage(_)) | Err(DjError::Field(_)) => {}
            Err(other) => panic!("untyped error: {other:?}"),
        }
    }
    frame
}

/// [`feed`] under the guards: no panic, no oversized allocation. Returns
/// whether anyone accepted the bytes.
fn check(targets: &Targets, what: &str, bytes: &[u8]) -> bool {
    LARGEST.with(|max| max.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| feed(targets, bytes)));
    let largest = LARGEST.with(Cell::get);
    let accepted = outcome.unwrap_or_else(|_| panic!("{what}: a parser panicked on {bytes:02x?}"));
    assert!(
        largest <= allocation_bound(bytes.len()),
        "{what}: a {largest}-byte allocation for {} input bytes: {bytes:02x?}",
        bytes.len()
    );
    accepted
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
        // The first words of either frame payload are sizes: a row
        // payload's codec header (magic, id, raw length), a columnar
        // payload's version, sample count and column count.
        2 => {
            let at = [1, 4, 9][rng.below(3) as usize];
            out = with_u64(&out, at, bomb(rng));
            format!("size bomb @{at}")
        }
        // A seal record is words only: the slot count, then each slot's
        // length and sample count.
        3 if magic == ENTRY_SEAL_MAGIC => {
            let at = 8 * rng.below((out.len() / 8 + 1) as u64) as usize;
            out = with_u64(&out, at, bomb(rng));
            format!("seal word bomb @{at}")
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
    let targets = Targets::new(&dir);
    let ds = shard();
    let seeds: Vec<(&[u8; 4], Vec<u8>)> = vec![
        (ENTRY_SEAL_MAGIC, targets.seal()),
        (SHARD_FRAME_MAGIC, encode_shard_frame(&ds, Codec::None)),
        (SHARD_FRAME_MAGIC, encode_shard_frame(&ds, Codec::Djz)),
        (COLUMNAR_FRAME_MAGIC, encode_columnar_frame(&ds, Codec::Djz)),
        (
            COLUMNAR_FRAME_MAGIC,
            encode_columnar_frame(&Dataset::new(), Codec::Djz),
        ),
        (COLUMNAR_FRAME_MAGIC, ingested_frame(&dir)),
        (COLUMNAR_FRAME_MAGIC, demoted_frame(Codec::Djz)),
    ];

    // The sweeps: every seed as it is, cut at every header boundary and a
    // byte either side, under every magic, with every length-field bomb.
    for (magic, sealed) in &seeds {
        assert!(check(&targets, "seed", sealed), "{magic:?} seed refused");
        let n = sealed.len();
        for cut in [0, 1, 3, 4, 5, 11, 12, 13, 19, 20, 21, n / 2, n - 1] {
            let accepted = check(&targets, &format!("cut at {cut}"), &sealed[..cut]);
            assert!(!accepted, "{magic:?} cut at {cut} of {n} was accepted");
        }
        for other in [
            SHARD_FRAME_MAGIC,
            COLUMNAR_FRAME_MAGIC,
            ENTRY_SEAL_MAGIC,
            b"\0\0\0\0",
        ] {
            // The checksum does not cover the magic: a swap hands a payload
            // to the wrong parser, which must refuse it on its own.
            let mut swapped = sealed.clone();
            swapped[..4].copy_from_slice(other);
            let accepted = check(&targets, "swapped magic", &swapped);
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
            let accepted = check(&targets, "length bomb", &with_u64(sealed, 4, word));
            assert!(!accepted, "length {len} accepted for {n} sealed bytes");
        }
        // A torn write that zeroes the checksum and the payload but leaves
        // magic and length standing: the envelope refuses it, whatever the
        // payload parsers would make of zeros.
        let mut torn = sealed.clone();
        torn[12..].fill(0);
        assert!(envelope::open_one(&torn).is_err(), "{magic:?} zeroed");
        assert!(!check(&targets, "zeroed checksum and payload", &torn));
        // Another envelope version: 0 is the FNV-1a envelope of earlier
        // releases, the rest are unknown.
        for version in [0, 2, 0xff] {
            let mut other = sealed.clone();
            other[11] = version;
            assert!(!check(&targets, "envelope version", &other), "{version}");
        }
        let mut trailing = sealed.clone();
        trailing.push(0);
        assert!(!check(&targets, "trailing byte", &trailing));
        let mut doubled = sealed.clone();
        doubled.extend_from_slice(sealed);
        assert!(!check(&targets, "two frames where one belongs", &doubled));
        if *magic == ENTRY_SEAL_MAGIC {
            // Behind a valid checksum, a seal record cut anywhere — at
            // every field boundary and inside every field — or with a
            // slot count of any other value is refused.
            let (_, payload) = envelope::open_one(sealed).unwrap();
            for cut in 0..payload.len() {
                let resealed = envelope::seal(magic, &payload[..cut]);
                assert!(!check(&targets, "seal cut", &resealed), "seal cut at {cut}");
            }
            let slots = u64::from_le_bytes(payload[..8].try_into().unwrap());
            for count in [
                0,
                slots - 1,
                slots + 1,
                1 << 32,
                u64::MAX / 16 + 1,
                u64::MAX,
            ] {
                let bombed = envelope::seal(magic, &with_u64(payload, 0, count));
                assert!(
                    !check(&targets, "slot count", &bombed),
                    "slot count {count}"
                );
            }
        }
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
            let accepted = check(&targets, "bit flip", &bad);
            // (No two of the magics are one bit apart, so a flip inside
            // one never lands on another.)
            assert!(!accepted, "{magic:?} bit flip @{at} read back as data");
        } else {
            // Damage behind a valid checksum: the inner parsers' turn.
            let (_, payload) = envelope::open_one(sealed).unwrap();
            let (what, mutated) = mutate_payload(&mut rng, magic, payload);
            check(&targets, &what, &envelope::seal(magic, &mutated));
        }
    }
    drop(targets);
    assert!(!dir.join("spool").exists());
    let _ = std::fs::remove_dir_all(&dir);
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

/// A sealed one-sample columnar frame with the single column `name`, of
/// kind `kind` (0 tagged, 1 raw JSON), whose region is `body`.
fn one_column_frame(name: &str, kind: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = vec![3u8];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
    payload.extend_from_slice(name.as_bytes());
    payload.push(kind);
    let words = [0, body.len() as u64];
    words
        .iter()
        .for_each(|w| payload.extend_from_slice(&w.to_le_bytes()));
    payload.extend_from_slice(body);
    envelope::seal(COLUMNAR_FRAME_MAGIC, &payload)
}

/// A one-sample raw JSON region holding `text` behind a length prefix of
/// `len`.
fn raw_entry(len: u32, text: &[u8]) -> Vec<u8> {
    let mut body = vec![1u8];
    body.extend_from_slice(&len.to_le_bytes());
    body.extend_from_slice(text);
    body
}

/// A raw JSON entry behind a valid checksum is text no reader checked. A
/// decode parses it, so anything but JSON `write_json` could have printed —
/// bad escapes, invalid UTF-8, a control byte, nesting past the limit, a
/// length prefix past the region — is a typed storage error from every
/// reader of the column, never a panic, and never printed into a part.
#[test]
fn a_damaged_raw_json_entry_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("dj-hostile-raw-{}", std::process::id()));
    let targets = Targets::new(&dir);
    let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    // A field of a sample sits one level in: the root object is the first.
    let fits = deep(MAX_NESTING_DEPTH - 1);
    let sealed = one_column_frame("meta", 1, &raw_entry(fits.len() as u32, fits.as_bytes()));
    check(&targets, "raw nesting at the limit", &sealed);
    let frame = Frame::parse(&sealed).unwrap();
    assert_eq!(frame.decode(None, None).unwrap().0.len(), 1);
    let mut printed = String::new();
    frame.write_jsonl(None, &mut printed).unwrap();
    assert_eq!(printed, format!("{{\"meta\":{fits}}}\n"));

    let past = deep(MAX_NESTING_DEPTH);
    let damaged: Vec<(&str, Vec<u8>)> = vec![
        ("bad escape", raw_entry(4, b"\"\\x\"")),
        ("not JSON", raw_entry(3, b"{,}")),
        ("trailing text", raw_entry(4, b"1 2x")),
        ("invalid UTF-8", raw_entry(3, b"\"\xff\"")),
        ("control byte", raw_entry(3, b"\"\n\"")),
        (
            "nesting one level past",
            raw_entry(past.len() as u32, past.as_bytes()),
        ),
        ("length past the region", raw_entry(1 << 30, b"null")),
        ("length bomb", raw_entry(u32::MAX, b"")),
        ("cut length", vec![1u8, 7, 0]),
    ];
    for (what, body) in damaged {
        let sealed = one_column_frame("meta", 1, &body);
        check(&targets, what, &sealed);
        let frame = Frame::parse(&sealed).unwrap();
        for result in [
            frame.decode(None, None).map(drop),
            frame.decode(None, Some(&[true])).map(drop),
            frame.with_texts("meta.x", |t| Ok(t.len())).map(drop),
        ] {
            assert!(
                matches!(result, Err(DjError::Storage(_))),
                "{what}: {result:?}"
            );
        }
        // A part gets JSON text or nothing: what egress copies must at
        // least be one line of UTF-8.
        let mut printed = String::new();
        match frame.write_jsonl(None, &mut printed) {
            Ok(_) => assert!(!printed.trim_end().contains(['\n', '\r']), "{what}"),
            Err(e) => assert!(matches!(e, DjError::Storage(_)), "{what}: {e:?}"),
        }
    }
    // An unknown column kind is refused when the frame is parsed.
    let err = Frame::parse(&one_column_frame("meta", 2, &raw_entry(4, b"null"))).unwrap_err();
    assert!(matches!(err, DjError::Storage(_)), "{err:?}");
    drop(targets);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nesting behind a valid checksum. The tagged-value decoders recurse once
/// per level, so without a limit a deep enough payload overflows the stack
/// — an abort no `catch_unwind` sees. A sample may nest `MAX_NESTING_DEPTH`
/// levels, its root object included (the JSON text limit), in a spill
/// frame and in a row frame; one level more, or 200 000, is a typed
/// storage error from every decoder.
#[test]
fn a_nesting_bomb_behind_a_valid_checksum_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("dj-hostile-nesting-{}", std::process::id()));
    let targets = Targets::new(&dir);
    fn refused<T: std::fmt::Debug>(result: Result<T, DjError>, what: &str) {
        assert!(
            matches!(result, Err(DjError::Storage(_))),
            "{what}: {result:?}"
        );
    }

    for (lists, fits) in [(MAX_NESTING_DEPTH - 1, true), (MAX_NESTING_DEPTH, false)] {
        let ds = nested_sample(lists);
        let sealed = encode_columnar_frame(&ds, Codec::Djz);
        check(&targets, "nesting at the limit", &sealed);
        let frame = Frame::parse(&sealed).unwrap();
        let decoded = frame.decode(None, None).map(|(d, _)| d);
        let mut printed = String::new();
        let written = frame.write_jsonl(None, &mut printed);
        let part = encode_shard_frame(&ds, Codec::Djz);
        check(&targets, "nesting at the limit", &part);
        let read_back = FrameSlab::from_frame_bytes(&part).and_then(|slab| slab.decode());
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
    let sealed = one_column_frame("text", 0, &[&[1u8][..], &deep].concat());
    check(&targets, "nesting bomb", &sealed);
    let frame = Frame::parse(&sealed).unwrap();
    refused(frame.decode(None, None), "decode");
    refused(frame.write_jsonl(None, &mut String::new()), "transcode");
    refused(frame.with_texts("text.x", |t| Ok(t.len())), "skip");
    // ... and as a row frame's one sample.
    let mut payload = vec![1u8];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(7); // map of one entry: "text" →
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&4u32.to_le_bytes());
    payload.extend_from_slice(b"text");
    payload.extend_from_slice(&deep);
    let sealed = envelope::seal(SHARD_FRAME_MAGIC, &compress(&payload, Codec::None));
    check(&targets, "nesting bomb", &sealed);
    refused(
        FrameSlab::from_frame_bytes(&sealed).and_then(|slab| slab.decode()),
        "decode a row frame",
    );
    drop(targets);
    assert!(!dir.join("spool").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
