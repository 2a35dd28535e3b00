//! Columnar shard frames (`DJSC`): decode only the bytes an OP touches.
//!
//! Every spool slot and cache entry is a columnar frame. A row frame
//! (`DJSF`, which no spool holds) serializes whole samples, so a stage
//! whose OPs read one field would still decode (and re-encode) every
//! metadata column. A columnar frame stores each *top-level column* of the
//! samples' root maps as its own contiguous, individually compressed
//! region, addressable from an offset table:
//!
//! ```text
//! payload (behind the [`crate::frame`] envelope, magic `DJSC`; the
//! payload itself is not compressed, its regions are):
//!   version       u8 (= 2)
//!   sample_count  u64 LE
//!   column_count  u32 LE
//!   directory, one entry per column, sorted by name:
//!     name_len  u32 LE, name bytes (UTF-8)
//!     kind      u8       0 = tagged values, 1 = raw JSON text
//!     offset    u64 LE   region start, relative to the end of the directory
//!     len       u64 LE   compressed region length
//!     raw_len   u64 LE   decompressed region length
//!   regions, concatenated in directory order
//!
//! region (before compression), one entry per stored sample:
//!   presence  u8 (0 = column absent in this sample, 1 = present)
//!   iff present, in a tagged column:   the tagged value (as `serialize`)
//!                in a raw JSON column: len u32 LE, then `len` bytes of
//!                                      canonical JSON text
//! ```
//!
//! The presence byte distinguishes a *missing* column from an explicit
//! `null`, so a frame decodes to exactly the samples it was encoded from.
//!
//! **The storage rule: a column is canonical JSON text unless a value in it
//! forbids that.** A field no op of the run reads comes from the JSONL
//! reader as text already ([`RawColumns`]) and is copied. Every column of
//! values a sink writes — file ingest (`encode_ingested`), the columns a
//! splice re-encodes, a resident stage's spill or cache save
//! ([`encode_columnar_frame`]) — is printed by `dj_core`'s guarded writer,
//! [`write_exact_json`], straight into its region. The guard refuses a
//! value whose text would not read back as itself (a non-finite float, an
//! integral float printed as an integer, a value nested deeper than a
//! decode reads); the first refusal *demotes* the column in this frame:
//! its text is dropped, its directory entry patched, and its values
//! written tagged, compressed with the frame's codec. A cheap pre-pass
//! sizes the text, so a frame reserves about the bytes it will hold. A
//! raw JSON region is stored uncompressed (`Codec::None`), whatever the
//! codec, and read where the frame holds it: JSONL egress copies an entry,
//! a decode parses it, a hash pass borrows a plain string.
//! (`SPOOL_CODEC` in [`crate::shard_stream`] has the measurements against
//! Djz.)
//! The envelope's checksum covers every byte of the payload, so a region
//! carries none of its own. A frame written before the rule, with tagged
//! touched columns, reads as it always did. Version 1 frames (tagged
//! columns only, a checksum per region) are refused as such, which makes
//! an earlier release's spool slot or cache entry a miss.
//!
//! Two access patterns motivate the format:
//!
//! * **projection** — [`ColumnarSlab::decode_projected`] materializes only
//!   the columns a stage's field footprints name (and
//!   [`ColumnarSlab::read_column`] feeds dedup hash passes a single column's
//!   texts as borrowed `Cow`s without building samples at all);
//! * **passthrough splice** — [`ColumnarSlab::splice`] passes the regions
//!   of untouched columns into the output frame verbatim, stored or
//!   compressed bytes, kind and all, and without a copy: the output is
//!   [`FrameParts`], its own bytes with those regions lent from the input
//!   frame between them, written to the slot piece after piece. A sample
//!   the stage dropped stays stored: its entries in
//!   the re-encoded columns are absent, and the keep mask the executor keeps
//!   beside the spool skips it. No region the stage did not decode is ever
//!   decompressed.
//!
//! Dropped entries leave the bytes only where the bytes leave the spool:
//! [`ColumnarSlab::filter_frame`] compacts a masked frame for a cache entry
//! by walking entry boundaries, never decoding a value: a text region's
//! kept entries are copied into the frame, a tagged one's recompressed.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use dj_core::{
    parse_json_nested, write_exact_json, Dataset, DjError, RawColumns, Result, Sample, Value,
};

use crate::codec::{
    compress_bound, compress_into, decompress_into, max_raw_len, store_into, stored_data, Codec,
    SLACK,
};
use crate::frame::{envelope, Frame, COLUMNAR_FRAME_MAGIC};
use crate::pool::{BufferPool, Holds, PooledBuf};
use crate::serialize::{
    read_value_at, skip_value_at, take_bytes, take_str, take_u32, take_u64, take_u8, walk_path,
    write_value, COLUMN_DEPTH,
};
use crate::transcode::{check_mask, keeps};

const COLUMNAR_VERSION: u8 = 2;

/// Bytes a stored (uncompressed) region spends on its codec header.
const HEADER_OF_STORED: usize = 12;

/// Directory kind byte of a column of tagged values.
pub(crate) const COLUMN_TAGGED: u8 = 0;
/// Directory kind byte of a column of raw JSON text.
pub(crate) const COLUMN_RAW_JSON: u8 = 1;

/// What a column's entries hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Tagged values, the `serialize` encoding.
    Tagged,
    /// Canonical JSON text, length-prefixed.
    RawJson,
}

impl Kind {
    fn byte(self) -> u8 {
        match self {
            Kind::Tagged => COLUMN_TAGGED,
            Kind::RawJson => COLUMN_RAW_JSON,
        }
    }

    fn from_byte(byte: u8, column: &str) -> Result<Kind> {
        match byte {
            COLUMN_TAGGED => Ok(Kind::Tagged),
            COLUMN_RAW_JSON => Ok(Kind::RawJson),
            other => Err(DjError::Storage(format!(
                "unknown kind {other} for column `{column}`"
            ))),
        }
    }

    /// Step over one present entry's value.
    pub(crate) fn skip(self, cur: &mut &[u8]) -> Result<()> {
        match self {
            Kind::Tagged => skip_value_at(cur, COLUMN_DEPTH),
            Kind::RawJson => {
                let len = take_u32(cur)? as usize;
                take_bytes(cur, len).map(drop)
            }
        }
    }

    /// Read one present entry's value.
    fn read(self, cur: &mut &[u8], column: &str) -> Result<Value> {
        match self {
            Kind::Tagged => read_value_at(cur, COLUMN_DEPTH),
            Kind::RawJson => parse_json_nested(take_raw(cur, column)?, COLUMN_DEPTH)
                .map_err(|e| DjError::Storage(format!("raw JSON in column `{column}`: {e}"))),
        }
    }
}

/// One present raw JSON entry's text, checked to be what a JSONL line can
/// hold as it is: UTF-8, with no control byte (canonical JSON escapes
/// every one).
pub(crate) fn take_raw<'a>(cur: &mut &'a [u8], column: &str) -> Result<&'a str> {
    let text = take_str(cur)?;
    if has_control_byte(text.as_bytes()) {
        return Err(DjError::Storage(format!(
            "control byte in raw JSON of column `{column}`"
        )));
    }
    Ok(text)
}

const LOW7: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// Whether any byte of `bytes` is below `0x20`, eight at a time.
fn has_control_byte(bytes: &[u8]) -> bool {
    any_word(bytes, |w| w.wrapping_sub(LOW7 * 0x20) & !w & HIGH != 0)
}

/// Whether any byte of `bytes` is a quote or a backslash, eight at a time.
fn has_quote_or_backslash(bytes: &[u8]) -> bool {
    let has_zero = |w: u64| w.wrapping_sub(LOW7) & !w & HIGH != 0;
    any_word(bytes, |w| {
        has_zero(w ^ (LOW7 * b'"' as u64)) || has_zero(w ^ (LOW7 * b'\\' as u64))
    })
}

/// Whether `hit` holds for any eight bytes of `bytes`, read as a
/// little-endian word; the last, short word is padded with `a`, a byte
/// neither check looks for.
fn any_word(bytes: &[u8], hit: impl Fn(u64) -> bool) -> bool {
    let word = |w: &[u8]| {
        let mut padded = [b'a'; 8];
        padded[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(padded)
    };
    let mut words = bytes.chunks_exact(8);
    let found = words.any(|w| hit(word(w)));
    found || hit(word(words.remainder()))
}

/// Bytes of the shortest directory entry (an empty name, the kind byte
/// and three words).
const MIN_DIRECTORY_ENTRY: usize = 4 + 1 + 3 * 8;

/// Most samples a frame with no column at all may claim. Such a frame —
/// every sample an empty map — is 33 bytes whatever its count, so nothing in
/// it bounds the count; no shard the executor cuts comes near this.
const MAX_COLUMNLESS_SAMPLES: u64 = 1 << 20;

/// Encode one shard as a columnar frame.
pub fn encode_columnar_frame(shard: &Dataset, codec: Codec) -> Vec<u8> {
    encode_into(shard, codec, &BufferPool::default()).into_vec()
}

/// [`encode_columnar_frame`] built in a buffer from `pool`: each column
/// printed as JSON text straight into the frame, or, demoted, written in
/// one reused buffer and compressed into it with `codec`.
pub(crate) fn encode_into(shard: &Dataset, codec: Codec, pool: &BufferPool) -> PooledBuf {
    let samples = || shard.iter().map(Some);
    let columns: Vec<(&str, Source)> = top_level_names(shard)
        .into_iter()
        .map(|name| (name, Source::Values(text_room(samples(), name))))
        .collect();
    let mut frame = FrameBuilder::planned(pool, 0, shard.len(), &columns);
    for (name, _) in &columns {
        frame.values(samples(), name, codec);
    }
    frame.seal()
}

/// Where a column of a frame being built comes from.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// The samples' values, printed as text unless a value refuses, with
    /// room for the text the pre-pass sized.
    Values(usize),
    /// A reader's raw JSON column (its index in the table), copied.
    Reader(usize),
    /// Another frame's region, lent.
    Lent(&'a ColumnEntry),
}

impl Source<'_> {
    fn kind(self) -> Kind {
        match self {
            Source::Values(_) | Source::Reader(_) => Kind::RawJson,
            Source::Lent(c) => c.kind,
        }
    }
}

/// The value column `name` has in a stored sample, if any (`None` is a
/// sample a stage dropped).
fn value_of<'s>(sample: Option<&'s Sample>, name: &str) -> Option<&'s Value> {
    sample?.value().as_map()?.get(name)
}

/// The pre-pass: the room column `name` of `samples`, one item per stored
/// sample, takes as text — cheap, with neither a string scanned nor a
/// number printed, and about what it holds: a presence byte and a length
/// per entry, and [`json_room`] per value.
fn text_room<'s>(samples: impl Iterator<Item = Option<&'s Sample>>, name: &str) -> usize {
    let entries = samples.map(|s| value_of(s, name).map_or(0, |v| 4 + json_room(v)));
    entries.map(|entry| 1 + entry).sum()
}

/// About the length of `v`'s JSON text: a string's bytes, an eighth more
/// for escapes, and its quotes; 24 bytes a number (a longer one, or more
/// escapes, grow the frame once).
fn json_room(v: &Value) -> usize {
    let string = |s: &str| s.len() + s.len() / 8 + 2;
    match v {
        Value::Null | Value::Bool(_) => 5,
        Value::Int(_) | Value::Float(_) => 24,
        Value::Str(s) => string(s),
        Value::List(items) => 2 + items.iter().map(|i| 1 + json_room(i)).sum::<usize>(),
        Value::Map(m) => {
            2 + m
                .iter()
                .map(|(k, i)| string(k) + 2 + json_room(i))
                .sum::<usize>()
        }
    }
}

/// The union of the samples' top-level keys, sorted.
fn top_level_names(samples: &Dataset) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for s in samples.iter() {
        if let Value::Map(m) = s.value() {
            names.extend(m.keys().map(String::as_str));
        }
    }
    names
}

/// The frame a shard read from text is stored as: `processed`, the samples
/// `keep` kept of the ones the reader produced, as columns of values
/// ([`FrameBuilder::values`]), and the reader's `raw` JSON columns beside
/// them, copied. Every sample read stays stored — a dropped one with no entry in
/// any column — for `keep` to mask, the way a splice stores what a stage
/// dropped.
pub(crate) fn encode_ingested(
    processed: &Dataset,
    raw: &RawColumns,
    keep: &[bool],
    codec: Codec,
    pool: &BufferPool,
) -> Result<PooledBuf> {
    check_mask(Some(keep), raw.len())?;
    check_kept(processed, keep)?;
    // An entry's length prefix is a u32; no entry is longer than all of them.
    if u32::try_from(raw.text_len()).is_err() {
        return Err(DjError::Storage(format!(
            "{} bytes of raw JSON in one shard: an entry's length must fit a u32",
            raw.text_len()
        )));
    }
    let samples = || stored(processed, keep);
    let values = top_level_names(processed);
    let mut columns: Vec<(&str, Source)> = Vec::new();
    for name in &values {
        columns.push((name, Source::Values(text_room(samples(), name))));
    }
    for (c, name) in raw.names().enumerate() {
        if values.contains(name) {
            return Err(DjError::Storage(format!(
                "field-footprint violation: a stage wrote the unparsed column `{name}`"
            )));
        }
        columns.push((name, Source::Reader(c)));
    }
    columns.sort_by_key(|(name, _)| *name);
    let raw_regions = raw.text_len() + raw.names().count() * (HEADER_OF_STORED + 5 * keep.len());
    let mut frame = FrameBuilder::planned(pool, raw_regions, keep.len(), &columns);
    for (name, source) in &columns {
        match *source {
            Source::Values(_) => frame.values(samples(), name, codec),
            Source::Reader(c) => {
                let entries = keep.iter().enumerate();
                let entries = entries.map(|(i, k)| raw.entry(c, i).filter(|_| *k));
                frame.store(|out| raw_column_body(out, entries));
            }
            Source::Lent(_) => {}
        }
    }
    Ok(frame.seal())
}

/// `processed` must hold exactly the samples `keep` keeps.
fn check_kept(processed: &Dataset, keep: &[bool]) -> Result<()> {
    let kept = keep.iter().filter(|k| **k).count();
    if processed.len() != kept {
        return Err(DjError::Storage(format!(
            "{} processed samples, keep mask kept {kept}",
            processed.len()
        )));
    }
    Ok(())
}

/// The processed samples at the positions `keep` kept, `None` where it
/// dropped: one item per stored sample.
fn stored<'s>(
    processed: &'s Dataset,
    keep: &'s [bool],
) -> impl Iterator<Item = Option<&'s Sample>> + Clone + 's {
    let mut samples = processed.iter();
    keep.iter()
        .map(move |k| if *k { samples.next() } else { None })
}

/// Write one demoted column's region before compression into `body`: per
/// stored sample a presence byte and, when present, the tagged value. A
/// `None` sample — one a stage dropped — stores an absent entry.
fn column_body<'s>(
    body: &mut Vec<u8>,
    samples: impl Iterator<Item = Option<&'s Sample>>,
    name: &str,
) {
    body.clear();
    for s in samples {
        match value_of(s, name) {
            Some(v) => {
                body.push(1);
                write_value(body, v);
            }
            None => body.push(0),
        }
    }
}

/// Append one text column's region to `out`, where the frame holds it: per
/// stored sample a presence byte and, when present, the length-prefixed
/// text of the value, printed in place by the guarded writer. Returns
/// whether every value was printed: at the first the guard refuses (or
/// whose text is too long for a u32 length) it stops.
fn text_column_body<'s>(
    out: &mut Vec<u8>,
    samples: impl Iterator<Item = Option<&'s Sample>>,
    name: &str,
) -> bool {
    for s in samples {
        let Some(v) = value_of(s, name) else {
            out.push(0);
            continue;
        };
        out.push(1);
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        let printed = write_exact_json(out, v, COLUMN_DEPTH);
        match printed.and_then(|len| u32::try_from(len).ok()) {
            Some(len) => out[at..at + 4].copy_from_slice(&len.to_le_bytes()),
            None => return false,
        }
    }
    true
}

/// Append one raw JSON column's region to `body`: per stored sample a
/// presence byte and, when present, the length-prefixed JSON text.
pub(crate) fn raw_column_body<'e>(
    body: &mut Vec<u8>,
    entries: impl Iterator<Item = Option<&'e str>>,
) {
    for entry in entries {
        match entry {
            Some(text) => {
                body.push(1);
                body.extend_from_slice(&(text.len() as u32).to_le_bytes());
                body.extend_from_slice(text.as_bytes());
            }
            None => body.push(0),
        }
    }
}

/// A sealed columnar frame under construction in one pooled buffer: room
/// for the envelope header, then the payload header and the directory with
/// its words zeroed; the regions follow in directory order — copied,
/// compressed in place, or lent by another frame — each patching its
/// directory words. [`seal`](FrameBuilder::seal) seals the buffer where it
/// is; a frame with lent regions is sealed in pieces instead
/// ([`seal_parts`](FrameBuilder::seal_parts)).
struct FrameBuilder<'a> {
    out: PooledBuf,
    /// The body demoted columns are written in before compression, taken
    /// from the pool for the first.
    body: Option<PooledBuf>,
    /// Regions lent by another frame, each with where in `out` it goes.
    lent: Vec<(usize, &'a [u8])>,
    /// Bytes lent so far.
    lent_len: usize,
    /// Where each directory entry's three words sit, in directory order.
    words: Vec<usize>,
    /// Where the regions start (directory offsets count from here).
    regions: usize,
    /// Regions appended so far.
    done: usize,
}

/// A sealed frame in pieces: its own bytes — the envelope, the directory
/// and the regions built for it — with regions lent by the frame it was
/// spliced from between them. Written piece after piece, it is the frame;
/// no buffer ever holds it whole.
#[derive(Debug)]
pub struct FrameParts<'a> {
    own: PooledBuf,
    lent: Vec<(usize, &'a [u8])>,
}

impl FrameParts<'_> {
    /// The frame's bytes, in order.
    pub fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        pieces(&self.own, &self.lent, 0)
    }

    /// The frame's length in bytes.
    pub fn len(&self) -> usize {
        self.own.len() + self.lent.iter().map(|(_, l)| l.len()).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frame as one byte string.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut whole = Vec::with_capacity(self.len());
        for piece in self.pieces() {
            whole.extend_from_slice(piece);
        }
        whole
    }
}

/// `own[from..]` with each lent slice inserted where it goes, as non-empty
/// pieces in order.
fn pieces<'s>(
    own: &'s [u8],
    lent: &'s [(usize, &[u8])],
    from: usize,
) -> impl Iterator<Item = &'s [u8]> {
    let mut at = from;
    lent.iter()
        .flat_map(move |(to, bytes)| {
            let before = &own[at..*to];
            at = *to;
            [before, *bytes]
        })
        .chain(std::iter::once_with(move || {
            &own[lent.last().map_or(from, |l| l.0)..]
        }))
        .filter(|piece| !piece.is_empty())
}

impl<'a> FrameBuilder<'a> {
    /// A frame of `samples` samples whose columns are `columns`, in
    /// directory (sorted) order, built in a frame buffer from `pool` with
    /// room for `regions` bytes of its own regions besides.
    fn new<'n>(
        pool: &BufferPool,
        regions: usize,
        samples: usize,
        columns: impl IntoIterator<Item = (&'n str, Kind)>,
    ) -> FrameBuilder<'a> {
        let columns: Vec<(&str, Kind)> = columns.into_iter().collect();
        let names: usize = columns.iter().map(|c| c.0.len()).sum();
        let room = envelope::HEADER_LEN + 13 + names + columns.len() * MIN_DIRECTORY_ENTRY;
        let mut out = pool.take(Holds::Frames, room + regions);
        out.resize(envelope::HEADER_LEN, 0);
        out.push(COLUMNAR_VERSION);
        out.extend_from_slice(&(samples as u64).to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        let mut words = Vec::new();
        for (name, kind) in columns {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(kind.byte());
            words.push(out.len());
            out.extend_from_slice(&[0; 3 * 8]);
        }
        let count_at = envelope::HEADER_LEN + 1 + 8;
        out[count_at..count_at + 4].copy_from_slice(&(words.len() as u32).to_le_bytes());
        FrameBuilder {
            regions: out.len(),
            out,
            body: None,
            lent: Vec::new(),
            lent_len: 0,
            words,
            done: 0,
        }
    }

    /// A frame of `samples` samples whose columns are `columns`, in
    /// directory order, with room for the text of its columns of values
    /// (as the pre-pass sized it) plus `more` bytes of regions built
    /// otherwise.
    fn planned(
        pool: &BufferPool,
        more: usize,
        samples: usize,
        columns: &[(&str, Source)],
    ) -> FrameBuilder<'a> {
        let values = columns.iter().map(|(_, source)| match source {
            Source::Values(room) => HEADER_OF_STORED + room,
            _ => 0,
        });
        let kinds = columns.iter().map(|(name, source)| (*name, source.kind()));
        FrameBuilder::new(pool, more + values.sum::<usize>(), samples, kinds)
    }

    /// Append column `name` of `samples`, one item per stored sample, as
    /// the next region: printed as text where the frame holds it, unless
    /// the guard refuses a value. Then the column is *demoted* in this
    /// frame: what was printed is dropped, the directory entry says
    /// tagged, and the values are written tagged in the frame's body and
    /// compressed with `codec`.
    fn values<'s>(
        &mut self,
        samples: impl Iterator<Item = Option<&'s Sample>> + Clone,
        name: &str,
        codec: Codec,
    ) {
        let own = self.out.len();
        let mut printed = true;
        self.store(|out| printed = text_column_body(out, samples.clone(), name));
        if printed {
            return;
        }
        self.done -= 1;
        self.out.truncate(own);
        // The kind byte sits just before the entry's three words.
        let kind = self.words[self.done] - 1;
        self.out[kind] = Kind::Tagged.byte();
        // A tagged value takes at most its heap size.
        let room = (samples.clone())
            .map(|s| 1 + value_of(s, name).map_or(0, Value::approx_bytes))
            .sum();
        let pool = self.out.pool().clone();
        let mut body = (self.body.take()).unwrap_or_else(|| pool.take(Holds::Raw, room));
        column_body(&mut body, samples, name);
        self.compress(&body, codec);
        self.body = Some(body);
    }

    /// The frame's length so far, lent regions included.
    fn len(&self) -> usize {
        self.out.len() + self.lent_len
    }

    /// Record the region that ends the frame, from `start`, in the next
    /// directory entry.
    fn close_region(&mut self, start: usize, raw_len: u64) {
        let len = self.len() - start;
        let at = self.words[self.done];
        let words = [(start - self.regions) as u64, len as u64, raw_len];
        for (k, word) in words.iter().enumerate() {
            self.out[at + 8 * k..at + 8 * (k + 1)].copy_from_slice(&word.to_le_bytes());
        }
        self.done += 1;
    }

    /// Append the next region as another frame stores it: its compressed
    /// bytes and its raw length, carried, not recomputed.
    fn copy(&mut self, bytes: &[u8], raw_len: u64) {
        let start = self.len();
        self.out.extend_from_slice(bytes);
        self.close_region(start, raw_len);
    }

    /// [`copy`](FrameBuilder::copy) without copying: the region stays where
    /// the other frame holds it, and goes out between this frame's own
    /// bytes.
    fn lend(&mut self, bytes: &'a [u8], raw_len: u64) {
        let start = self.len();
        self.lent.push((self.out.len(), bytes));
        self.lent_len += bytes.len();
        self.close_region(start, raw_len);
    }

    /// Append the next region as `write` writes it, stored uncompressed:
    /// the way every raw JSON region is kept, so that egress reads its
    /// text where the frame holds it.
    fn store(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.len();
        store_into(&mut self.out, write);
        let raw_len = self.len() - start - HEADER_OF_STORED;
        self.close_region(start, raw_len as u64);
    }

    /// Compress `body` straight into the frame as the next region.
    fn compress(&mut self, body: &[u8], codec: Codec) {
        let start = self.len();
        let pool = self.out.pool().clone();
        pool.with_table(|table| compress_into(body, codec, &mut self.out, table));
        self.close_region(start, body.len() as u64);
    }

    /// The sealed frame, once every column's region is in (none lent).
    fn seal(mut self) -> PooledBuf {
        debug_assert_eq!(self.done, self.words.len(), "a region is missing");
        debug_assert!(self.lent.is_empty(), "a lent region would be lost");
        envelope::seal_in_place(COLUMNAR_FRAME_MAGIC, &mut self.out);
        self.out
    }

    /// The sealed frame in pieces, once every column's region is in.
    fn seal_parts(mut self) -> FrameParts<'a> {
        debug_assert_eq!(self.done, self.words.len(), "a region is missing");
        let mut header = [0; envelope::HEADER_LEN];
        let payload = pieces(&self.out, &self.lent, envelope::HEADER_LEN);
        envelope::seal_pieces(COLUMNAR_FRAME_MAGIC, &mut header, payload);
        self.out[..envelope::HEADER_LEN].copy_from_slice(&header);
        FrameParts {
            own: self.out,
            lent: self.lent,
        }
    }
}

/// Read one entry's presence byte: whether a value follows.
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
    kind: Kind,
    /// Absolute byte range of the compressed region within the payload.
    start: usize,
    len: usize,
    raw_len: u64,
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
                "unsupported columnar format version {version} (this build reads \
                 {COLUMNAR_VERSION})"
            )));
        }
        let samples = take_u64(&mut cur)?;
        let count = take_u32(&mut cur)? as usize;
        let mut raw_columns = Vec::with_capacity(count.min(cur.len() / MIN_DIRECTORY_ENTRY));
        for _ in 0..count {
            let name = take_str(&mut cur)?.to_string();
            let kind = Kind::from_byte(take_u8(&mut cur)?, &name)?;
            let offset = take_u64(&mut cur)?;
            let len = take_u64(&mut cur)?;
            let raw_len = take_u64(&mut cur)?;
            raw_columns.push((name, kind, offset, len, raw_len));
        }
        // Regions base = everything after the directory.
        let regions_base = buf.len() - cur.len();
        let regions_len = cur.len() as u64;
        let mut columns = Vec::with_capacity(raw_columns.len());
        for (name, kind, offset, len, raw_len) in raw_columns {
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
                kind,
                start: regions_base + offset as usize,
                len: len as usize,
                raw_len,
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

    /// Whether column `name` holds raw JSON text rather than tagged values.
    pub fn is_raw_json(&self, name: &str) -> bool {
        self.entry(name).is_some_and(|c| c.kind == Kind::RawJson)
    }

    fn entry(&self, name: &str) -> Option<&ColumnEntry> {
        self.columns.iter().find(|c| c.name == name)
    }

    fn region_bytes(&self, c: &ColumnEntry) -> &[u8] {
        &self.buf[c.start..c.start + c.len]
    }

    /// One region's bytes before compression, size-verified: read in
    /// place when the region is stored uncompressed, else decompressed into
    /// a buffer from this frame's pool.
    fn region_raw(&self, c: &ColumnEntry) -> Result<RegionData<'_>> {
        let region = self.region_bytes(c);
        let data = match stored_data(region) {
            Some(data) => RegionData::InPlace(data),
            None => {
                let mut data = self.buf.pool().take(Holds::Raw, c.raw_len as usize + SLACK);
                decompress_into(region, &mut data)?;
                RegionData::Decompressed(data)
            }
        };
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

    /// Decompress one column's region, or `Ok(None)` when the frame has no
    /// such column.
    pub fn read_column(&self, name: &str) -> Result<Option<ColumnRegion<'_>>> {
        let Some(c) = self.entry(name) else {
            return Ok(None);
        };
        let data = self.region_raw(c)?;
        Ok(Some(ColumnRegion {
            data,
            samples: self.samples,
            kind: c.kind,
        }))
    }

    /// Materialize samples from the named columns only (`None` = all).
    ///
    /// Returns the dataset and `bytes_decoded` — the decompressed bytes of
    /// every region that had to be decoded to build it. Columns requested
    /// but absent from the frame are simply missing from the samples, and
    /// frame columns not requested are skipped entirely (their regions are
    /// never decompressed). A raw JSON entry is parsed.
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
                        c.kind.skip(&mut cur)?;
                    }
                } else if let (Some(map), true) = (maps.next(), present) {
                    map.insert(c.name.clone(), c.kind.read(&mut cur, &c.name)?);
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

    /// Every region decompressed (size-verified), with its column name and
    /// kind, in directory order — the transcoder's input.
    pub(crate) fn raw_regions(&self) -> Result<Vec<(&str, Kind, RegionData<'_>)>> {
        self.columns
            .iter()
            .map(|c| Ok((c.name.as_str(), c.kind, self.region_raw(c)?)))
            .collect()
    }

    /// Full decode into an owned dataset.
    pub fn decode(&self) -> Result<Dataset> {
        Ok(self.decode_projected(None)?.0)
    }

    /// The output frame of a stage that ran on this frame: `decoded`
    /// columns re-encoded from `processed`, every other column's region
    /// lent verbatim from this frame, so the frame comes back in pieces.
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
    /// is decompressed or copied: the new frame's own bytes are built in a
    /// buffer from this frame's pool, and the passed regions stay here.
    /// Returns it plus `bytes_passthrough`: the decompressed size of the
    /// regions passed. A processed sample carrying a column
    /// that was *not* decoded is a field-footprint violation and errors —
    /// silent column collisions must never reach disk.
    pub fn splice(
        &self,
        processed: &Dataset,
        decoded: Option<&BTreeSet<String>>,
        keep: &[bool],
        codec: Codec,
    ) -> Result<(FrameParts<'_>, u64)> {
        check_mask(Some(keep), self.samples)?;
        check_kept(processed, keep)?;

        let passthrough: Vec<&ColumnEntry> = match decoded {
            None => Vec::new(),
            Some(set) => self
                .columns
                .iter()
                .filter(|c| !set.contains(&c.name))
                .collect(),
        };

        // Columns re-encoded from the processed samples.
        let encoded_names = top_level_names(processed);
        for c in &passthrough {
            if encoded_names.contains(c.name.as_str()) {
                return Err(DjError::Storage(format!(
                    "field-footprint violation: stage wrote undeclared column `{}`",
                    c.name
                )));
            }
        }

        let bytes_passthrough = passthrough.iter().map(|c| c.raw_len).sum();
        let samples = || stored(processed, keep);
        let mut columns: Vec<(&str, Source)> = passthrough
            .into_iter()
            .map(|c| (c.name.as_str(), Source::Lent(c)))
            .chain(
                (encoded_names.into_iter())
                    .map(|name| (name, Source::Values(text_room(samples(), name)))),
            )
            .collect();
        columns.sort_by_key(|(name, _)| *name);
        let mut frame = FrameBuilder::planned(self.buf.pool(), 0, self.samples, &columns);
        for (name, source) in &columns {
            match *source {
                Source::Lent(c) => frame.lend(self.region_bytes(c), c.raw_len),
                Source::Values(_) => frame.values(samples(), name, codec),
                Source::Reader(_) => {}
            }
        }
        Ok((frame.seal_parts(), bytes_passthrough))
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
        let columns = self.columns.iter().map(|c| (c.name.as_str(), c.kind));
        if kept == self.samples {
            let room = self.columns.iter().map(|c| c.len).sum();
            let mut frame = FrameBuilder::new(pool, room, kept, columns);
            for c in &self.columns {
                frame.copy(self.region_bytes(c), c.raw_len);
            }
            return Ok(frame.seal());
        }
        // Kept entries are at most the region's, recompressed.
        let room = (self.columns.iter())
            .map(|c| compress_bound(c.raw_len as usize))
            .sum();
        let mut frame = FrameBuilder::new(pool, room, kept, columns);
        let mut body = None;
        for c in &self.columns {
            let region = self.region_raw(c)?;
            match c.kind {
                Kind::RawJson => {
                    let mut copied = Ok(());
                    frame.store(|out| copied = copy_kept(out, &region, keep, c));
                    copied?;
                }
                Kind::Tagged => {
                    let room = c.raw_len as usize;
                    let body = body.get_or_insert_with(|| pool.take(Holds::Raw, room));
                    body.clear();
                    copy_kept(body, &region, keep, c)?;
                    frame.compress(body, codec);
                }
            }
        }
        Ok(frame.seal())
    }
}

/// Append the entries of `region`, column `c`'s bytes before compression,
/// that `keep` keeps — presence byte and value, found by skipping — to
/// `out`.
fn copy_kept(out: &mut Vec<u8>, region: &[u8], keep: &[bool], c: &ColumnEntry) -> Result<()> {
    let mut cur = region;
    for keep_it in keep {
        let entry = cur;
        if take_entry(&mut cur, &c.name)? {
            c.kind.skip(&mut cur)?;
        }
        if *keep_it {
            out.extend_from_slice(&entry[..entry.len() - cur.len()]);
        }
    }
    if !cur.is_empty() {
        return Err(DjError::Storage(format!(
            "trailing bytes after column `{}`",
            c.name
        )));
    }
    Ok(())
}

/// A region's bytes before compression: in the frame's own buffer when it
/// is stored uncompressed, else in a buffer it was decompressed into.
#[derive(Debug)]
pub(crate) enum RegionData<'a> {
    InPlace(&'a [u8]),
    Decompressed(PooledBuf),
}

impl std::ops::Deref for RegionData<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            RegionData::InPlace(data) => data,
            RegionData::Decompressed(data) => data,
        }
    }
}

/// One decompressed column region, ready for zero-copy text borrowing.
#[derive(Debug)]
pub struct ColumnRegion<'a> {
    data: RegionData<'a>,
    samples: usize,
    kind: Kind,
}

impl ColumnRegion<'_> {
    /// Decompressed size of this region.
    pub fn raw_len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Borrow the text at dotted path `rest` *within* this column for every
    /// sample (`""` = the column value itself). Semantics mirror
    /// [`dj_core::Sample::text_at`]: a missing path, an absent column entry
    /// or a non-string value yields `""`. A raw JSON entry that is a whole
    /// string with no escape is borrowed from between its quotes; any other
    /// is parsed, and its text copied out.
    pub fn texts_at(&self, rest: &str) -> Result<Vec<Cow<'_, str>>> {
        let segments: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split('.').collect()
        };
        let mut cur: &[u8] = &self.data;
        let mut out = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            out.push(match (take_entry(&mut cur, "")?, self.kind) {
                (false, _) => Cow::Borrowed(""),
                (true, Kind::Tagged) => walk_path(&mut cur, &segments)?,
                (true, Kind::RawJson) => {
                    let text = take_raw(&mut cur, "")?;
                    match plain_string(text) {
                        // A string has no path inside it.
                        Some(plain) if segments.is_empty() => Cow::Borrowed(plain),
                        Some(_) => Cow::Borrowed(""),
                        None => {
                            let value = parse_json_nested(text, COLUMN_DEPTH).map_err(|e| {
                                DjError::Storage(format!("raw JSON in column: {e}"))
                            })?;
                            let at = segments.iter().try_fold(&value, |v, s| v.as_map()?.get(*s));
                            Cow::Owned(at.and_then(Value::as_str).unwrap_or("").to_string())
                        }
                    }
                }
            });
        }
        if !cur.is_empty() {
            return Err(DjError::Storage("trailing bytes after column".into()));
        }
        Ok(out)
    }
}

/// The string a JSON text is, when it is one string with nothing escaped:
/// the bytes between its quotes, which hold no quote and no backslash.
fn plain_string(text: &str) -> Option<&str> {
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    (!has_quote_or_backslash(inner.as_bytes())).then_some(inner)
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
        // ... and without a copy: each such region is a piece of the input
        // frame, lent between the output's own bytes.
        let lent: Vec<&[u8]> = out_frame.lent.iter().map(|(_, bytes)| *bytes).collect();
        let passed: Vec<&[u8]> = slab
            .columns
            .iter()
            .filter(|c| c.name != "text")
            .map(|c| slab.region_bytes(c))
            .collect();
        assert_eq!(lent, passed);
        assert!(lent
            .iter()
            .all(|l| slab.buf.as_ptr_range().contains(&l.as_ptr())));
        let whole = out_frame.to_vec();
        assert_eq!(whole.len(), out_frame.len());
        assert_eq!(out_frame.pieces().collect::<Vec<_>>().concat(), whole);

        let out = ColumnarSlab::from_frame_bytes(&whole).unwrap();
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
    /// copied and stored again as its kind is (text stored, tagged values
    /// recompressed), the re-encoded columns holding the kept samples only,
    /// laid out by the storage rule. Cache entries were made of these
    /// bytes, so a stored splice compacted by `filter_frame` must equal
    /// them.
    fn compacted_splice(
        slab: &ColumnarSlab,
        processed: &Dataset,
        decoded: &BTreeSet<String>,
        keep: &[bool],
    ) -> Vec<u8> {
        let mut bodies: Vec<(String, Kind, Vec<u8>)> = Vec::new();
        for c in slab.columns.iter().filter(|c| !decoded.contains(&c.name)) {
            let region = decompress(slab.region_bytes(c)).unwrap();
            let mut body = Vec::new();
            let mut cur: &[u8] = &region;
            for keep_it in keep {
                let entry = cur;
                if take_entry(&mut cur, &c.name).unwrap() {
                    c.kind.skip(&mut cur).unwrap();
                }
                if *keep_it {
                    body.extend_from_slice(&entry[..entry.len() - cur.len()]);
                }
            }
            bodies.push((c.name.clone(), c.kind, body));
        }
        let mut names = BTreeSet::new();
        for s in processed.iter() {
            names.extend(s.value().as_map().unwrap().keys().cloned());
        }
        let encoded = names.clone();
        for name in names {
            bodies.push((name, Kind::RawJson, Vec::new()));
        }
        bodies.sort_by(|a, b| a.0.cmp(&b.0));
        let names = bodies.iter().map(|(name, kind, _)| (name.as_str(), *kind));
        let mut frame = FrameBuilder::new(&BufferPool::default(), 0, processed.len(), names);
        for (name, kind, body) in &bodies {
            match (encoded.contains(name), kind) {
                (true, _) => frame.values(processed.iter().map(Some), name, Codec::Djz),
                (false, Kind::RawJson) => frame.store(|out| out.extend_from_slice(body)),
                (false, Kind::Tagged) => frame.compress(body, Codec::Djz),
            }
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
        let out = ColumnarSlab::from_frame_bytes(&stored.to_vec()).unwrap();
        // Every stored sample is still stored.
        assert_eq!(out.sample_count(), ds.len());
        // Every passthrough region is the input's, bytes and directory entry.
        assert_eq!(out.column_names(), slab.column_names());
        let copied: Vec<&ColumnEntry> = slab.columns.iter().filter(|c| c.name != "text").collect();
        assert_eq!(passthrough, copied.iter().map(|c| c.raw_len).sum::<u64>());
        for c in copied {
            let o = out.entry(&c.name).unwrap();
            assert_eq!(out.region_bytes(o), slab.region_bytes(c));
            assert_eq!((o.raw_len, o.kind), (c.raw_len, c.kind));
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
        assert_eq!(
            *compacted,
            *compacted_splice(&slab, &processed, &cols, &keep)
        );
        // With nothing dropped there is nothing to compact.
        let all = vec![true; ds.len()];
        assert_eq!(
            *out.filter_frame(&all, Codec::Djz).unwrap(),
            stored.to_vec()
        );
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
    fn a_version_1_frame_is_refused_by_its_version() {
        // The layout of earlier releases: no kind byte, a checksum per
        // region. Its version byte alone refuses it.
        let ds = rich_shard();
        let frame = encode_columnar_frame(&ds, Codec::Djz);
        let (magic, payload) = envelope::open_one(&frame).unwrap();
        let mut old = payload.to_vec();
        old[0] = 1;
        let err = ColumnarSlab::from_frame_bytes(&envelope::seal(&magic, &old)).unwrap_err();
        assert!(matches!(err, DjError::Storage(_)), "{err:?}");
        assert!(err.to_string().contains("version 1"), "{err}");
        // A columnar slab is only ever built from a columnar frame.
        let row = crate::encode_shard_frame(&ds, Codec::Djz);
        assert!(ColumnarSlab::from_frame_bytes(&row).is_err());
    }

    /// Four samples read from text: `text` parsed, `url` and `h` left raw,
    /// the third sample without `h`.
    fn ingested() -> (Dataset, RawColumns) {
        let mut raw = RawColumns::new();
        let mut samples = Dataset::new();
        for i in 0..4 {
            samples.push(Sample::from_text(format!("doc {i}")));
            raw.push("url", &format!("\"https://x/{i}\""));
            if i != 2 {
                raw.push("h", &format!("{{\"n\":{i},\"s\":[\"a\\\"b\",null]}}"));
            }
            raw.close();
        }
        (samples, raw)
    }

    /// The samples of [`ingested`] with their raw fields parsed back in.
    fn whole(samples: &Dataset, raw: &RawColumns) -> Dataset {
        let mut whole = samples.clone();
        for (i, s) in whole.samples_mut().iter_mut().enumerate() {
            for (name, text) in raw.sample_entries(i) {
                let value = dj_core::parse_json(text).unwrap();
                s.value_mut()
                    .as_map_mut()
                    .unwrap()
                    .insert(name.into(), value);
            }
        }
        whole
    }

    #[test]
    fn raw_json_columns_are_stored_as_text_and_read_as_values() {
        let (samples, raw) = ingested();
        let want = whole(&samples, &raw);
        let keep = [true, false, true, true];
        let processed = masked(&samples, &keep);
        let pool = BufferPool::default();
        let sealed = encode_ingested(&processed, &raw, &keep, Codec::Djz, &pool).unwrap();
        let slab = ColumnarSlab::from_frame_bytes(&sealed).unwrap();
        assert_eq!(slab.sample_count(), 4, "a dropped sample stays stored");
        assert_eq!(slab.column_names(), vec!["h", "text", "url"]);
        // The reader's columns are its text; `text`, parsed, is printed
        // back as text by the storage rule.
        assert!(["h", "text", "url"]
            .iter()
            .all(|name| slab.is_raw_json(name)));
        // A region holds each entry's text as it is.
        let region = decompress(slab.region_bytes(slab.entry("url").unwrap())).unwrap();
        assert_eq!(&region[..5], &[1, 13, 0, 0, 0]);
        assert_eq!(&region[5..18], b"\"https://x/0\"");
        assert_eq!(region[18], 0, "the dropped sample has no entry");
        // Decoded, a raw entry is its value; projected away, it is skipped.
        let want = masked(&want, &keep);
        assert_eq!(slab.decode_kept(None, Some(&keep)).unwrap().0, want);
        let text: BTreeSet<String> = ["text".to_string()].into();
        assert_eq!(
            slab.decode_kept(Some(&text), Some(&keep)).unwrap().0,
            processed
        );
        let mut out = String::new();
        slab.write_jsonl(Some(&keep), &mut out).unwrap();
        assert_eq!(out, crate::to_jsonl(&want));
        // Texts inside a raw column are reached by parsing.
        let texts = slab.read_column("h").unwrap().unwrap();
        let texts = texts.texts_at("s").unwrap();
        assert_eq!(texts, vec![Cow::Borrowed(""); 4], "a list is no text");
        let urls = slab.read_column("url").unwrap().unwrap();
        assert_eq!(urls.texts_at("").unwrap()[3], "https://x/3");
        // A stage over `text` copies the raw regions, kind and bytes.
        let (mut upper, _) = slab.decode_kept(Some(&text), Some(&keep)).unwrap();
        for s in upper.samples_mut() {
            let t = s.text().to_uppercase();
            s.set_text(t);
        }
        let (spliced, passthrough) = slab.splice(&upper, Some(&text), &keep, Codec::Djz).unwrap();
        let spliced = ColumnarSlab::from_frame_bytes(&spliced.to_vec()).unwrap();
        assert_eq!(
            passthrough,
            slab.column_raw_len("h").unwrap() + slab.column_raw_len("url").unwrap()
        );
        for name in ["h", "url"] {
            let (a, b) = (spliced.entry(name).unwrap(), slab.entry(name).unwrap());
            assert_eq!(spliced.region_bytes(a), slab.region_bytes(b));
            assert_eq!(a.kind, Kind::RawJson);
        }
        // Compacted for a cache entry, a raw column stays raw.
        let compact = spliced.filter_frame(&keep, Codec::Djz).unwrap();
        let compact = ColumnarSlab::from_frame_bytes(&compact).unwrap();
        assert!(compact.is_raw_json("h"));
        let mut decoded = compact.decode().unwrap();
        for s in decoded.samples_mut() {
            let t = s.text().to_lowercase();
            s.set_text(t);
        }
        assert_eq!(decoded, want);
    }

    #[test]
    fn a_stage_that_writes_an_unparsed_column_is_refused() {
        let (samples, raw) = ingested();
        let mut processed = samples.clone();
        processed.samples_mut()[0]
            .value_mut()
            .set_path("url", Value::Null)
            .unwrap();
        let keep = [true; 4];
        let err = encode_ingested(&processed, &raw, &keep, Codec::Djz, &BufferPool::default())
            .unwrap_err();
        assert!(err.to_string().contains("footprint"), "{err}");
        let err = encode_ingested(
            &samples,
            &raw,
            &keep[1..],
            Codec::Djz,
            &BufferPool::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DjError::Storage(_)), "{err:?}");
    }

    /// Six samples whose `stats` and `meta` demote — a NaN, and an integral
    /// float its text would read back as an integer — beside text columns
    /// (`text`, and `zero`, whose `-0.0` keeps its sign as text), and an
    /// empty sample.
    fn mixed_shard() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..6 {
            let mut s = Sample::from_text(format!("doc {i} \"q\" ü"));
            s.set_stat("ratio", i as f64 / 4.0);
            if i == 3 {
                s.set_stat("bad", f64::NAN);
            }
            s.set_meta("n", i as i64);
            if i == 4 {
                s.set_meta("ts", 1.7e15);
            }
            s.value_mut().set_path("zero", Value::Float(-0.0)).unwrap();
            ds.push(s);
        }
        ds.push(Sample::new());
        ds
    }

    /// Value for value, by bits: a NaN equals itself, `-0.0` is not `0.0`.
    fn same(got: &Dataset, want: &Dataset) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!(g.value().structural_eq(w.value()), "{g:?} != {w:?}");
        }
    }

    fn kinds(slab: &ColumnarSlab) -> Vec<(&str, Kind)> {
        slab.columns
            .iter()
            .map(|c| (c.name.as_str(), c.kind))
            .collect()
    }

    #[test]
    fn a_frame_of_text_and_demoted_columns_reads_back_on_every_path() {
        let ds = mixed_shard();
        let slab = ColumnarSlab::from_frame_bytes(&encode_columnar_frame(&ds, Codec::Djz)).unwrap();
        let (tagged, text) = (Kind::Tagged, Kind::RawJson);
        let all = [
            ("meta", tagged),
            ("stats", tagged),
            ("text", text),
            ("zero", text),
        ];
        assert_eq!(kinds(&slab), all);
        // A demoted column is compressed with the frame's codec, a text
        // column stored.
        for (name, kind) in all {
            let stored = stored_data(slab.region_bytes(slab.entry(name).unwrap())).is_some();
            assert_eq!(stored, kind == text, "{name}");
        }
        same(&slab.decode().unwrap(), &ds);
        // Sample 3 (the NaN) and the empty sample are dropped.
        let keep = [true, true, false, false, true, true, false];
        let masked_ds = masked(&ds, &keep);
        same(&slab.decode_kept(None, Some(&keep)).unwrap().0, &masked_ds);

        // A stage over `text` and `stats`: `stats` is printed again, and
        // without the NaN it is text; `meta` and `zero` are lent as they
        // are, `meta` tagged.
        let cols: BTreeSet<String> = ["stats".to_string(), "text".to_string()].into();
        let (mut processed, _) = slab.decode_kept(Some(&cols), Some(&keep)).unwrap();
        for s in processed.samples_mut() {
            let up = s.text().to_uppercase();
            s.set_text(up);
        }
        let (parts, _) = slab
            .splice(&processed, Some(&cols), &keep, Codec::Djz)
            .unwrap();
        let spliced = ColumnarSlab::from_frame_bytes(&parts.to_vec()).unwrap();
        let after = [
            ("meta", tagged),
            ("stats", text),
            ("text", text),
            ("zero", text),
        ];
        assert_eq!(kinds(&spliced), after);
        let mut want = masked_ds.clone();
        for (w, p) in want.samples_mut().iter_mut().zip(processed.iter()) {
            w.set_text(p.text().to_string());
        }
        same(&spliced.decode_kept(None, Some(&keep)).unwrap().0, &want);
        let mut jsonl = String::new();
        spliced.write_jsonl(Some(&keep), &mut jsonl).unwrap();
        assert_eq!(jsonl, crate::to_jsonl(&want));

        // Compacted for a cache entry, each column keeps its kind.
        let compact = spliced.filter_frame(&keep, Codec::Djz).unwrap();
        let compact = ColumnarSlab::from_frame_bytes(&compact).unwrap();
        assert_eq!(kinds(&compact), after);
        same(&compact.decode().unwrap(), &want);
        let mut again = String::new();
        compact.write_jsonl(None, &mut again).unwrap();
        assert_eq!(again, jsonl);
        // The input frame compacted: its demoted columns recompressed.
        let compact = slab.filter_frame(&keep, Codec::Djz).unwrap();
        let compact = ColumnarSlab::from_frame_bytes(&compact).unwrap();
        assert_eq!(kinds(&compact), all);
        same(&compact.decode().unwrap(), &masked_ds);
    }

    /// A web-like shard: documents of a few hundred bytes to a few
    /// kilobytes, a URL and a language, two stats.
    fn web_like_shard() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..300 {
            let words = ["data", "juicer", "über", "tokens", "corpus", "quality"];
            let text: Vec<&str> = (0..40 + (i * 37) % 400)
                .map(|k| words[(i + k) % 6])
                .collect();
            let mut s = Sample::from_text(text.join(if i % 5 == 0 { "\n" } else { " " }));
            s.set_meta("url", format!("https://example.org/{i}/index.html"));
            s.set_meta("lang", "en");
            s.set_stat("ratio", i as f64 / 7.0);
            s.set_stat("words", (40 + (i * 37) % 400) as f64);
            ds.push(s);
        }
        ds
    }

    #[test]
    fn a_frame_reserves_about_the_bytes_it_seals() {
        let ds = web_like_shard();
        let pool = BufferPool::default();
        let sealed = encode_into(&ds, Codec::Djz, &pool);
        assert!(
            sealed.capacity() <= 2 * sealed.len(),
            "{}",
            sealed.capacity()
        );
        assert!(pool.bytes() <= 2 * sealed.len(), "{}", pool.bytes());
        // A splice's own bytes, and an ingested shard's frame.
        let slab = ColumnarSlab::from_frame_bytes(&sealed).unwrap();
        let cols: BTreeSet<String> = ["text".to_string()].into();
        let keep = vec![true; ds.len()];
        let (processed, _) = slab.decode_kept(Some(&cols), None).unwrap();
        let (parts, _) = slab
            .splice(&processed, Some(&cols), &keep, Codec::Djz)
            .unwrap();
        let own = parts.own.len();
        assert!(parts.own.capacity() <= 2 * own, "{}", parts.own.capacity());
        let mut raw = RawColumns::new();
        let mut samples = Dataset::new();
        for s in ds.iter() {
            let mut root = s.value().clone();
            raw.take_inert(&mut root, |key| key == "text");
            raw.close();
            samples.push(Sample::from_value(root).unwrap());
        }
        let ingested = encode_ingested(&samples, &raw, &keep, Codec::Djz, &pool).unwrap();
        assert!(ingested.capacity() <= 2 * ingested.len());
        assert_eq!(
            ColumnarSlab::from_frame_bytes(&ingested)
                .unwrap()
                .decode()
                .unwrap(),
            ds
        );
    }

    #[test]
    fn a_plain_string_entry_is_borrowed_and_any_other_is_parsed() {
        let mut ds = Dataset::new();
        for text in [
            "plain ü 🦀",
            "line\nbreak",
            "a \"quote\"",
            "back\\slash",
            "",
        ] {
            ds.push(Sample::from_text(text));
        }
        let mut n = Sample::new();
        n.value_mut().set_path("text", Value::Int(7)).unwrap();
        ds.push(n);
        let slab = ColumnarSlab::from_frame_bytes(&encode_columnar_frame(&ds, Codec::Djz)).unwrap();
        let region = slab.read_column("text").unwrap().unwrap();
        let texts = region.texts_at("").unwrap();
        let want: Vec<&str> = ds.iter().map(|s| s.text_at("text")).collect();
        assert_eq!(texts, want);
        let borrowed: Vec<bool> = texts
            .iter()
            .map(|t| matches!(t, Cow::Borrowed(_)))
            .collect();
        assert_eq!(borrowed, [true, false, false, false, true, false]);
        // A string has no path inside it.
        assert_eq!(region.texts_at("a.b").unwrap(), vec![Cow::Borrowed(""); 6]);
    }

    #[test]
    fn split_column_path_examples() {
        assert_eq!(split_column_path("text"), ("text", ""));
        assert_eq!(split_column_path("meta.lang"), ("meta", "lang"));
        assert_eq!(split_column_path("a.b.c"), ("a", "b.c"));
    }
}
