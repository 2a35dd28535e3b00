//! Where the dataset lives between stages ([`StageData`]) and the feeds
//! and sinks that connect each shape to the one shard driver
//! ([`crate::stream::drive`]). This module is the only code that knows
//! which execution shape a run is in:
//!
//! | shape | feed | sink | what is decoded |
//! |---|---|---|---|
//! | in memory | [`StageData::open`]: take the shard out of its slot | [`Sink::Mem`]: store into a slot | nothing — samples are resident |
//! | spilled | [`spool_feed`], [`Load::Decode`]`(cols)` | [`Sink::Spool`] | every sample the deferred mask keeps; a columnar frame decodes only the pass's footprint columns `cols` and rides to the sink, which copies every other region verbatim and keeps the samples the stage dropped stored, under the new spool's mask; a row frame ignores `cols` and is dropped once decoded |
//! | file ingest | [`reader_feed`]: shards cut off a `CorpusReader` | [`Sink::Spool`] | the parsed records |
//! | barrier hash pass | resident samples in morsels, or [`spool_feed`] with [`Load::Undecoded`] | — | only the hashed field's text |
//! | barrier mask, in memory | resident shards, in parallel | [`Sink::Mem`] | nothing — `retain` by mask |
//! | barrier mask, spilled | — (nothing is read or written: [`StageData::masked`] attaches the mask to the spool) | — | nothing; duplicate traces borrow the first `cap` dropped texts |
//! | JSONL egress of a spool | [`spool_feed`], [`Load::Undecoded`] | `ShardedWriter::store_jsonl` | nothing — frame bytes are transcoded to JSON text |
//! | `frames` egress of a spool | checked slot bytes (entry-filtered when masked) | `ShardedWriter::store_frame_bytes` | nothing, unless a slot has to be converted to a row frame |
//! | cache resume | [`StageData::from_cached`]: the entry's frames, one at a time | memory, or spool slots | every frame while the budget holds; past it, none — frame bytes are copied into slots |
//!
//! Which format a frame has — row or columnar — is `dj-store`'s business:
//! everything here works on its `Frame`.
//!
//! A spilled barrier writes nothing: its keep mask rides on the
//! [`Spilled`] data and is consumed by whichever pass opens the spool next —
//! the following stage's load, the next barrier's hash pass, egress,
//! materialization or a cache save. A columnar stage's filter verdicts ride
//! the same way: its output frames keep every sample they stored, so no
//! region the stage did not decode is rewritten, and the verdicts become the
//! next spool's mask.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeSet;
use std::sync::Mutex;

use dj_core::sync::lock;
use dj_core::{Dataset, Deduplicator, Fingerprints, MemShardStore, Result, Sample, TEXT_KEY};
use dj_io::{CorpusReader, OutputFormat, ShardedWriter};
use dj_store::{encode_shard_frame, CacheManager, CachedEntry, Codec, Frame, ShardSpool};

use crate::barrier::{hash_loaded, hash_pass, hash_samples};
use crate::executor::Executor;
use crate::options::ExecOptions;
use crate::report::{snippet, TraceEvent};
use crate::stream::{drive, Feed, Resident, RunCtl};

/// Codec for spilled shard frames (cheap LZ77: spill IO shrinks without a
/// zstd-class CPU bill). Measured on `meta-file-col`'s shards (`djbench
/// --trace 1`, 2-core VM): ≈ 320 MB/s to compress, ≈ 770 MB/s to
/// decompress into fresh memory, 2.7× smaller: byte for byte, writing a
/// spilled frame costs the codec about 2.4 times what reading it back does.
pub(crate) const SPILL_CODEC: Codec = Codec::Djz;

/// Samples per in-memory barrier hash morsel: workers stay balanced by
/// *samples* whatever the shard cut, and a cancelled job stops within one
/// morsel per worker.
const HASH_MORSEL: usize = 1024;

/// The items of `items` a keep mask keeps (all of them without one).
pub(crate) fn kept<'k, T>(
    items: impl Iterator<Item = T> + 'k,
    keep: Option<&'k [bool]>,
) -> impl Iterator<Item = T> + 'k {
    items
        .enumerate()
        .filter(move |(i, _)| keep.is_none_or(|k| k[*i]))
        .map(|(_, item)| item)
}

/// Spread `keep` — one verdict per sample a `deferred` mask kept — over the
/// stored samples `deferred` covers: a stored sample survives when both
/// masks keep it.
pub(crate) fn widen_keep(deferred: Option<&[bool]>, keep: Vec<bool>) -> Vec<bool> {
    let Some(deferred) = deferred else {
        return keep;
    };
    let mut verdicts = keep.into_iter();
    deferred
        .iter()
        .map(|stored| *stored && verdicts.next().unwrap_or(false))
        .collect()
}

/// One shard as a feed hands it to a pass.
pub(crate) struct Loaded<'a> {
    /// The decoded samples: all the deferred mask keeps (the decode set's
    /// columns of them, where the frame can project), or none for an
    /// undecoded load.
    pub shard: Dataset,
    /// The frame the shard was (or was not) decoded from, when the feed
    /// keeps it: an undecoded load, or a frame the sink still has columns
    /// to splice from.
    pub frame: Option<Frame>,
    /// The spool's deferred mask over the frame's stored samples, if it
    /// carries one: `shard` already honors it; whoever reads `frame` must.
    pub keep: Option<&'a [bool]>,
    /// Decompressed bytes decoded to build `shard`, where the frame
    /// attributes them.
    pub decoded: u64,
    /// The samples never left memory (a barrier re-slotting resident
    /// shards), so the load made nothing newly resident.
    pub resident: bool,
}

impl Loaded<'_> {
    fn samples(shard: Dataset) -> Loaded<'static> {
        Loaded {
            shard,
            frame: None,
            keep: None,
            decoded: 0,
            resident: false,
        }
    }
}

impl Resident for Loaded<'_> {
    /// A carried frame charges its payload; decoded samples their heap size.
    fn residency(&self) -> (usize, usize) {
        match &self.frame {
            _ if self.resident => (0, 0),
            Some(frame) => frame.residency(),
            None => (self.shard.len(), self.shard.approx_bytes()),
        }
    }
}

/// An undecoded frame charges the payload it holds.
impl Resident for Frame {
    fn residency(&self) -> (usize, usize) {
        (self.sample_count().unwrap_or(0), self.payload_len())
    }
}

/// Sealed frame bytes on their way out hold no samples, only themselves.
impl Resident for Vec<u8> {
    fn residency(&self) -> (usize, usize) {
        (0, self.len())
    }
}

/// Borrowed, already-resident samples (a hash morsel) charge nothing.
impl Resident for &[&Sample] {
    fn residency(&self) -> (usize, usize) {
        (0, 0)
    }
}

/// How a spool feed loads a slot.
#[derive(Clone, Copy)]
pub(crate) enum Load<'a> {
    /// Decode every kept sample — these columns of it (`None` = all) where
    /// the frame can project — and keep the frame only while the sink has
    /// something left to splice from it.
    Decode(Option<&'a BTreeSet<String>>),
    /// Keep the frame undecoded — a barrier borrows texts out of it, JSONL
    /// egress transcodes it.
    Undecoded,
}

/// The slots of a spill spool, re-readable. Entries the spool's deferred
/// mask drops are skipped at load; an undecoded load hands the mask on.
pub(crate) fn spool_feed<'a>(data: &'a Spilled, load: Load<'a>) -> Feed<'a, Loaded<'a>> {
    let spool = &data.spool;
    Feed::indexed(spool.shard_count(), true, move |i| {
        let keep = data.keep(i);
        let frame = spool.read(i)?;
        let (shard, frame, decoded) = match load {
            Load::Decode(cols) => {
                let (shard, decoded) = frame.decode(cols, keep)?;
                (shard, frame.into_splice_source(), decoded)
            }
            Load::Undecoded => (Dataset::new(), Some(frame), 0),
        };
        Ok(Loaded {
            frame,
            keep,
            decoded,
            ..Loaded::samples(shard)
        })
    })
}

/// Resident shards, moved out of their slots as the pass reaches them.
/// `resident` marks them as never having left memory (a barrier's
/// mask-apply), so they charge nothing.
fn mem_feed<'a>(shards: Vec<Dataset>, resident: bool) -> Feed<'a, Loaded<'a>> {
    let n = shards.len();
    let slots = MemShardStore::from_shards(shards);
    Feed::indexed(n, false, move |i| {
        Ok(Loaded {
            resident,
            ..Loaded::samples(slots.load_shard(i)?)
        })
    })
}

/// Shards cut off a corpus stream: open-ended, dry when the reader is. The
/// reader and the shard counter share a lock so indices always match
/// stream order, whichever stepper pulls.
pub(crate) fn reader_feed<'a>(
    reader: &'a Mutex<(CorpusReader, usize)>,
    shard_size: usize,
) -> Feed<'a, Loaded<'a>> {
    Feed {
        len: None,
        overlaps_io: true,
        next: Box::new(move || {
            let mut guard = lock(reader);
            let Some(shard) = guard.0.next_shard(shard_size)? else {
                return Ok(None);
            };
            guard.1 += 1;
            Ok(Some((guard.1 - 1, Loaded::samples(shard))))
        }),
    }
}

/// Where a pass stores each shard's outcome.
pub(crate) enum Sink<'a> {
    /// One memory slot per shard.
    Mem(MemShardStore),
    /// A fresh spill spool. A shard whose load carried its frame is stored
    /// as that frame's splice — the named columns re-encoded from the
    /// processed samples, every other column copied undecoded, the dropped
    /// samples still stored; anything else is encoded whole in the spool's
    /// own format.
    Spool(ShardSpool, Option<&'a BTreeSet<String>>),
}

impl Sink<'_> {
    /// Whether stored shards can carry fingerprints for the next barrier.
    pub(crate) fn carries_fingerprints(&self) -> bool {
        matches!(self, Sink::Spool(..))
    }

    /// Store shard `idx`. `frame` is what the load carried, `keep` says per
    /// *stored* sample of that frame whether it survived into `shard` (see
    /// [`widen_keep`]). Returns the decompressed bytes that crossed
    /// input→output undecoded and, when the stored frame still holds
    /// samples `keep` dropped, `keep` itself: the slot's mask, for
    /// [`finish`](Sink::finish).
    pub(crate) fn store(
        &self,
        idx: usize,
        frame: Option<Frame>,
        shard: Dataset,
        keep: Vec<bool>,
        fingerprints: Option<Fingerprints>,
    ) -> Result<(u64, Option<Vec<bool>>)> {
        let (out, cols) = match self {
            Sink::Mem(slots) => return slots.store_shard(idx, shard).map(|()| (0, None)),
            Sink::Spool(out, cols) => (out, *cols),
        };
        let (passthrough, mask) = match frame {
            Some(frame) => {
                let (bytes, samples, passthrough) =
                    frame.store_processed(&shard, cols, &keep, SPILL_CODEC)?;
                out.write_frame_bytes(idx, &bytes, samples)?;
                (passthrough, (samples != shard.len()).then_some(keep))
            }
            None => {
                out.write_shard(idx, &shard)?;
                (0, None)
            }
        };
        if let Some(fp) = fingerprints {
            out.write_fingerprints(idx, &fp)?;
        }
        Ok((passthrough, mask))
    }

    /// The stored shards, as the next stage's input. `masks` holds what
    /// [`store`](Sink::store) returned per slot, in slot order (empty when
    /// nothing was stored with dead samples).
    pub(crate) fn finish(self, masks: Vec<Option<Vec<bool>>>) -> Result<StageData> {
        match self {
            Sink::Mem(slots) => slots.into_shards().map(StageData::Mem),
            Sink::Spool(out, _) => Ok(StageData::Spilled(Spilled {
                mask: masks,
                ..Spilled::new(out)
            })),
        }
    }
}

/// Spilled data: a spool of shard frames plus the keep mask that stands
/// for the samples its frames still store but the dataset no longer holds
/// — what a dedup barrier dropped instead of rewriting every frame, and
/// what a columnar stage dropped instead of rewriting the regions it never
/// decoded.
pub(crate) struct Spilled {
    spool: ShardSpool,
    /// Per slot, per *stored* sample: whether it is still part of the
    /// dataset. A slot without one (`None`, or past the end) has every
    /// stored sample live. A stage's verdicts start it; barriers
    /// and-combine into it.
    mask: Vec<Option<Vec<bool>>>,
    /// A barrier consumed the spool's fingerprint sidecars: they describe
    /// the samples that barrier clustered, not what is live after its
    /// mask. (A stage's mask spends nothing — its sidecars hold the samples
    /// it kept.)
    sidecars_spent: bool,
}

impl Spilled {
    fn new(spool: ShardSpool) -> Spilled {
        Spilled {
            spool,
            mask: Vec::new(),
            sidecars_spent: false,
        }
    }

    /// The mask over slot `i`'s stored samples, if any.
    fn keep(&self, i: usize) -> Option<&[bool]> {
        self.mask.get(i)?.as_deref()
    }

    /// Samples of slot `i` still part of the dataset.
    fn shard_len(&self, i: usize) -> usize {
        match self.keep(i) {
            Some(keep) => keep.iter().filter(|k| **k).count(),
            None => self.spool.shard_len(i).unwrap_or(0),
        }
    }
}

/// Drop the samples `keep` masks out of `shard`, tracing up to `cap` of
/// the dropped duplicates.
fn apply_mask(shard: &mut Dataset, keep: &[bool], cap: usize) -> Vec<TraceEvent> {
    let mut trace = Vec::new();
    for (sample, _) in shard.iter().zip(keep).filter(|(_, keep)| !**keep).take(cap) {
        trace.push(TraceEvent::Duplicate {
            dropped: snippet(sample.text()),
        });
    }
    shard.retain_mask(keep);
    trace
}

/// Where the dataset lives between stages: in memory as ordered shards
/// (default) or spilled to a disk spool of checksummed shard frames
/// (out-of-core mode).
///
/// The in-memory representation stays sharded *across* stage boundaries —
/// including through dedup barriers — so the engine never pays a full
/// merge + re-split between stages; concatenating the shards in index
/// order is the dataset.
pub(crate) enum StageData {
    Mem(Vec<Dataset>),
    Spilled(Spilled),
}

impl StageData {
    pub(crate) fn len(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Heap bytes held in memory (a spool holds none).
    pub(crate) fn approx_bytes(&self) -> usize {
        match self {
            StageData::Mem(shards) => shards.iter().map(Dataset::approx_bytes).sum(),
            StageData::Spilled(_) => 0,
        }
    }

    /// Sample count per shard, in shard order (what a deferred mask drops
    /// is not counted).
    pub(crate) fn shard_lens(&self) -> Vec<usize> {
        match self {
            StageData::Mem(shards) => shards.iter().map(Dataset::len).collect(),
            StageData::Spilled(data) => (0..data.spool.shard_count())
                .map(|i| data.shard_len(i))
                .collect(),
        }
    }

    /// A resumed cache entry as stage input: its frames are decoded into
    /// memory one at a time while they fit `budget` (an entry need not come
    /// from a spill, and an under-budget run never downgrades to
    /// out-of-core on resume). The moment one does not fit, what was decoded
    /// is dropped and the entry's frames are copied — as bytes, each
    /// checked, none decoded or re-encoded — into the slots of a spool from
    /// `new_spool`, so a columnar entry resumes as columnar slots. At most
    /// `budget` bytes and one frame are ever held.
    pub(crate) fn from_cached(
        mut entry: CachedEntry,
        budget: u64,
        new_spool: impl FnOnce() -> Result<ShardSpool>,
    ) -> Result<StageData> {
        let mut shards = Vec::new();
        let mut bytes = 0u64;
        while let Some(sealed) = entry.next_frame()? {
            let shard = Frame::parse(&sealed)?.decode(None, None)?.0;
            bytes += shard.approx_bytes() as u64;
            if bytes > budget {
                drop(shards);
                entry.rewind()?;
                let spool = new_spool()?;
                let mut slot = 0;
                while let Some(sealed) = entry.next_frame()? {
                    let samples = Frame::parse(&sealed)?.sample_count()?;
                    spool.write_frame_bytes(slot, &sealed, samples)?;
                    slot += 1;
                }
                return Ok(StageData::Spilled(Spilled::new(spool)));
            }
            shards.push(shard);
        }
        Ok(StageData::Mem(shards))
    }

    pub(crate) fn is_spilled(&self) -> bool {
        matches!(self, StageData::Spilled(_))
    }

    /// Merge into one in-memory dataset — the deliberate materialization
    /// at the end of a run that returns its result.
    pub(crate) fn into_dataset(self) -> Result<Dataset> {
        match self {
            StageData::Mem(shards) => Ok(Dataset::from_shards(shards)),
            StageData::Spilled(data) => {
                let mut out = Dataset::new();
                for i in 0..data.spool.shard_count() {
                    out.extend(data.spool.read(i)?.decode(None, data.keep(i))?.0);
                }
                Ok(out)
            }
        }
    }

    /// Persist as cache entry `idx`/`key` without merging: resident shards
    /// are encoded one frame each, a spool's slot files are copied as they
    /// are once their checksums held (slots a deferred mask thins are
    /// entry-filtered on the way).
    pub(crate) fn save(&self, cache: &CacheManager, idx: usize, key: &str) -> Result<()> {
        match self {
            StageData::Mem(shards) if shards.is_empty() => cache.save(idx, key, &Dataset::new()),
            StageData::Mem(shards) => {
                let frames = shards
                    .iter()
                    .map(|s| Ok(encode_shard_frame(s, cache.codec())));
                cache.save_frames(idx, key, frames)
            }
            StageData::Spilled(data) => {
                let slots = 0..data.spool.shard_count();
                let frames = slots.map(|i| data.spool.read_frame_bytes(i, data.keep(i)));
                cache.save_frames(idx, key, frames)
            }
        }
        .map(drop)
    }

    /// Write every shard to `writer`. Nothing spilled is decoded on the
    /// way out: a spool already holds the `frames` output format, so its
    /// checked slot bytes are copied through, and JSONL is transcoded from
    /// the undecoded frames. (The one exception is inside the store: a slot
    /// that is not a row frame is converted, because the `frames` contract
    /// is row frames byte-identical to a row-format run.)
    pub(crate) fn egress(
        &self,
        writer: &ShardedWriter,
        format: OutputFormat,
        options: &ExecOptions,
        ctl: &RunCtl,
    ) -> Result<()> {
        let data = match self {
            StageData::Mem(shards) => {
                for (i, shard) in shards.iter().enumerate() {
                    writer.store_shard(i, shard)?;
                }
                return Ok(());
            }
            StageData::Spilled(data) => data,
        };
        let (workers, depth) = (options.num_workers, options.prefetch_depth);
        match format {
            OutputFormat::Frames => {
                let slots = Feed::indexed(data.spool.shard_count(), true, |i| {
                    data.spool.read_row_frame_bytes(i, data.keep(i))
                });
                drive(&slots, workers, depth, ctl, |i, frame| {
                    writer.store_frame_bytes(i, &frame, data.shard_len(i))
                })?;
            }
            OutputFormat::Jsonl => {
                let slots = Feed::indexed(data.spool.shard_count(), true, |i| data.spool.read(i));
                drive(&slots, workers, depth, ctl, |i, frame| {
                    writer.store_jsonl(i, |out| frame.write_jsonl(data.keep(i), out))
                })?;
            }
        }
        Ok(())
    }

    /// Spill into `spool`, recut to `shard_count` shards (the spill cut is
    /// budget-derived, so carried boundaries are redrawn). With `upcoming`
    /// — the barrier about to consume the spool — each shard is
    /// fingerprinted as its frame is written (fingerprint-on-ingest).
    pub(crate) fn spill(
        self,
        spool: ShardSpool,
        shard_count: usize,
        upcoming: Option<&dyn Deduplicator>,
    ) -> Result<StageData> {
        let sink = Sink::Spool(spool, None);
        let shards = self.into_dataset()?.into_shards(shard_count);
        for (i, shard) in shards.into_iter().enumerate() {
            let fingerprints = upcoming
                .map(|d| hash_samples(d, shard.samples()))
                .transpose()?;
            sink.store(i, None, shard, Vec::new(), fingerprints)?;
        }
        sink.finish(Vec::new())
    }

    /// Cut fresh (single-shard) in-memory data to the configured shard
    /// count; reuse carried multi-shard boundaries as-is — unless barrier
    /// rebalancing merged them below the worker count, in which case
    /// carrying them further would cap stage parallelism, so the data is
    /// recut. (The recut moves samples, it does not copy their text.)
    /// Spilled data keeps the cut it was spilled with.
    pub(crate) fn resharded(self, options: &ExecOptions) -> StageData {
        let StageData::Mem(mut shards) = self else {
            return self;
        };
        let desired = options.shard_count(shards.iter().map(Dataset::len).sum());
        let floor = desired.min(options.num_workers.max(1));
        let recut = match shards.len() {
            1 => desired > 1,
            n => n < floor,
        };
        if recut {
            let whole = match shards.len() {
                1 => shards.swap_remove(0),
                _ => Dataset::from_shards(shards),
            };
            shards = whole.into_shards(desired);
        }
        StageData::Mem(shards)
    }

    /// Merge in-memory shards a barrier thinned below `min_len` samples
    /// into their left neighbor (the first shard absorbs rightward).
    /// Shards at or above the floor keep their boundaries — the
    /// carry-through fast path. Spool slots are never merged.
    pub(crate) fn rebalanced(self, min_len: usize) -> StageData {
        let StageData::Mem(shards) = self else {
            return self;
        };
        if min_len == 0 || shards.len() <= 1 {
            return StageData::Mem(shards);
        }
        let mut out: Vec<Dataset> = Vec::with_capacity(shards.len());
        for shard in shards {
            match out.last_mut() {
                Some(prev) if prev.len() < min_len || shard.len() < min_len => prev.extend(shard),
                _ => out.push(shard),
            }
        }
        StageData::Mem(out)
    }

    /// Open this data for one decoding pass: the feed that loads its
    /// shards and the sink that stores the pass's output. `cols` is the
    /// pass's decode set (`None` = everything); a spilled frame that can
    /// project honors it and has every other column spliced through
    /// undecoded. In-memory shards are moved into the feed.
    pub(crate) fn open<'a>(
        &'a mut self,
        exec: &Executor,
        cols: Option<&'a BTreeSet<String>>,
    ) -> Result<(Feed<'a, Loaded<'a>>, Sink<'a>)> {
        Ok(match self {
            StageData::Mem(shards) => {
                let sink = Sink::Mem(MemShardStore::with_capacity(shards.len()));
                (mem_feed(std::mem::take(shards), false), sink)
            }
            StageData::Spilled(data) => {
                let out = exec.new_spool(data.spool.shard_count())?;
                (spool_feed(data, Load::Decode(cols)), Sink::Spool(out, cols))
            }
        })
    }

    /// Fingerprint every sample for `dedup`, in dataset order:
    /// `(fingerprints, decompressed bytes decoded, read from sidecars)`.
    /// Sidecars written while the frames were spilled
    /// (fingerprint-on-ingest) are the shortcut — no hash pass runs at all. Otherwise resident samples are
    /// hashed in place, in sample-balanced morsels, and spilled ones by
    /// borrowing the hashed field's text out of undecoded frames — a full
    /// decode only when the deduplicator hashes whole samples.
    pub(crate) fn fingerprints(
        &self,
        dedup: &dyn Deduplicator,
        options: &ExecOptions,
        ctl: &RunCtl,
    ) -> Result<(Fingerprints, u64, bool)> {
        let (fingerprints, decoded) = match self {
            StageData::Mem(shards) => {
                let samples: Vec<&Sample> = shards.iter().flat_map(Dataset::iter).collect();
                let morsels: Vec<&[&Sample]> = samples.chunks(HASH_MORSEL).collect();
                let feed = Feed::indexed(morsels.len(), false, |i| Ok(morsels[i]));
                hash_pass(&feed, options, ctl, |morsel| {
                    hash_samples(dedup, morsel.iter().copied()).map(|h| (h, 0))
                })?
            }
            StageData::Spilled(data) => {
                // Sidecars a barrier consumed fed that barrier, not this one.
                if !data.sidecars_spent {
                    let live = self.shard_lens();
                    if let Some(fingerprints) = data.spool.read_all_fingerprints(&live)? {
                        return Ok((fingerprints, 0, true));
                    }
                }
                let load = match dedup.hash_field() {
                    Some(_) => Load::Undecoded,
                    None => Load::Decode(None),
                };
                let feed = spool_feed(data, load);
                hash_pass(&feed, options, ctl, |loaded| hash_loaded(dedup, loaded))?
            }
        };
        Ok((fingerprints, decoded, false))
    }

    /// Apply a barrier's dataset-level keep `mask`; returns the thinned
    /// data and up to `cap` traces of the first duplicates dropped.
    ///
    /// This is the one place that decides *how*: resident shards are
    /// thinned in place, in parallel on the worker pool. Spilled data is
    /// not touched at all — the mask is attached to the spool (and-combined
    /// with one already there) for the next pass that opens it to consume,
    /// so a spilled barrier reads and writes no frame; only duplicate
    /// traces borrow the dropped texts out of the slots that hold the first
    /// `cap` of them.
    pub(crate) fn masked(
        self,
        mask: &[bool],
        cap: usize,
        options: &ExecOptions,
        ctl: &RunCtl,
    ) -> Result<(StageData, Vec<TraceEvent>)> {
        let lens = self.shard_lens();
        let mut slices = lens.iter().scan(0, |end, len| {
            let start = std::mem::replace(end, *end + len);
            Some(&mask[start..*end])
        });
        let mut trace = Vec::new();
        match self {
            StageData::Mem(shards) => {
                let slices: Vec<&[bool]> = slices.collect();
                let sink = MemShardStore::with_capacity(shards.len());
                let per_shard = drive(
                    &mem_feed(shards, true),
                    options.num_workers,
                    options.prefetch_depth,
                    ctl,
                    |i, loaded| {
                        let mut shard = loaded.shard;
                        let trace = apply_mask(&mut shard, slices[i], cap);
                        sink.store_shard(i, shard).map(|()| trace)
                    },
                )?;
                trace.extend(per_shard.into_iter().flatten().take(cap));
                Ok((StageData::Mem(sink.into_shards()?), trace))
            }
            StageData::Spilled(mut data) => {
                let mut stored = Vec::with_capacity(lens.len());
                for i in 0..lens.len() {
                    let keep = slices.next().unwrap_or_default();
                    if trace.len() < cap && keep.contains(&false) {
                        data.spool.read(i)?.with_texts(TEXT_KEY, |texts| {
                            let live = kept(texts.iter(), data.keep(i));
                            let dropped = live.zip(keep).filter(|(_, keep)| !**keep);
                            for (text, _) in dropped.take(cap - trace.len()) {
                                trace.push(TraceEvent::Duplicate {
                                    dropped: snippet(text),
                                });
                            }
                            Ok(())
                        })?;
                    }
                    stored.push(Some(widen_keep(data.keep(i), keep.to_vec())));
                }
                data.mask = stored;
                data.sidecars_spent = true;
                Ok((StageData::Spilled(data), trace))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cache_entry_over_budget_resumes_as_its_own_frames_copied_into_slots() {
        use dj_store::{encode_columnar_frame, CacheMode};
        let root = std::env::temp_dir().join(format!("dj-exec-from-cached-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let shards =
            Dataset::from_texts((0..20).map(|i| format!("cached document {i}"))).into_shards(3);
        // Row and columnar frames side by side, in codecs the spool itself
        // would not pick: only a byte copy can reproduce them.
        let frames: Vec<Vec<u8>> = vec![
            encode_shard_frame(&shards[0], Codec::None),
            encode_columnar_frame(&shards[1], Codec::None),
            encode_shard_frame(&shards[2], Codec::Djz),
        ];
        let cache = CacheManager::new(root.join("cache"), 1, CacheMode::Cache);
        cache
            .save_frames(0, "stage", frames.iter().cloned().map(Ok))
            .unwrap();
        let open = || {
            cache
                .latest_match(&[(0, "stage".to_string())])
                .unwrap()
                .unwrap()
                .1
        };
        let spool_dir = root.join("spool");
        let new_spool = || ShardSpool::create(&spool_dir, 0, SPILL_CODEC);

        // Under budget: decoded into memory, no spool is ever created.
        let resident = StageData::from_cached(open(), u64::MAX, new_spool).unwrap();
        assert!(!resident.is_spilled() && !spool_dir.exists());
        assert_eq!(resident.shard_lens(), vec![7, 7, 6]);
        assert_eq!(
            resident.into_dataset().unwrap(),
            Dataset::from_shards(shards.clone())
        );

        // Over budget from the second frame on: every slot file is the
        // entry's frame, byte for byte — the first one included.
        let first = shards[0].approx_bytes() as u64;
        for budget in [1, first] {
            let spilled = StageData::from_cached(open(), budget, new_spool).unwrap();
            assert!(spilled.is_spilled());
            assert_eq!(spilled.shard_lens(), vec![7, 7, 6]);
            for (i, frame) in frames.iter().enumerate() {
                let slot = std::fs::read(spool_dir.join(format!("shard-{i:05}.djs"))).unwrap();
                assert_eq!(&slot, frame, "slot {i} was re-encoded");
            }
            assert_eq!(
                spilled.into_dataset().unwrap(),
                Dataset::from_shards(shards.clone())
            );
            assert!(!spool_dir.exists(), "the spool outlived its data");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rebalance_merges_only_underfilled_shards() {
        let full = || Dataset::from_texts(["a", "b", "c", "d"]);
        let thin = || Dataset::from_texts(["x"]);
        // Threshold 2: full shards keep their boundaries.
        let rebalance = |shards: Vec<Dataset>, min_len: usize| match StageData::Mem(shards)
            .rebalanced(min_len)
        {
            StageData::Mem(shards) => shards,
            StageData::Spilled(_) => unreachable!("memory stays memory"),
        };
        let kept = rebalance(vec![full(), full(), full()], 2);
        assert_eq!(kept.len(), 3, "well-filled shards are carried through");
        // A thinned middle shard merges into its left neighbor.
        let merged = rebalance(vec![full(), thin(), full()], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].len(), 5);
        assert_eq!(merged[1].len(), 4);
        // A thinned leading shard absorbs its right neighbor.
        let lead = rebalance(vec![thin(), full(), full()], 2);
        assert_eq!(lead.len(), 2);
        assert_eq!(lead[0].len(), 5);
        // Order is preserved across merges.
        let texts: Vec<_> = rebalance(
            vec![
                Dataset::from_texts(["1"]),
                Dataset::from_texts(["2"]),
                Dataset::from_texts(["3", "4"]),
            ],
            2,
        )
        .into_iter()
        .flat_map(|d| d.iter().map(|s| s.text().to_string()).collect::<Vec<_>>())
        .collect();
        assert_eq!(texts, vec!["1", "2", "3", "4"]);
        // Threshold 0 disables rebalancing entirely.
        assert_eq!(rebalance(vec![thin(), thin()], 0).len(), 2);
    }
}
