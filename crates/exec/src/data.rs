//! Where the dataset lives between stages ([`StageData`]) and the feeds
//! and sinks that connect each shape to the one shard driver
//! ([`crate::stream::drive`]). This module is the only code that knows
//! which execution shape a run is in:
//!
//! | shape | feed | sink | what is decoded |
//! |---|---|---|---|
//! | in memory | [`StageData::open`]: take the shard out of its slot, leaving behind what the deferred mask drops | [`Sink::Mem`]: store into a slot | nothing — samples are resident |
//! | spilled | [`spool_feed`], [`Load::Decode`]`(cols)` | [`Sink::Spool`] | the pass's footprint columns `cols` of every sample the deferred mask keeps; the frame rides to the sink, which copies every other region verbatim and keeps the samples the stage dropped stored, under the new spool's mask |
//! | file ingest | [`reader_feed`]: shards cut off a `CorpusReader` | [`Sink::Spool`] | the fields some op reads or writes; every other top-level field rides beside the shard as raw JSON text and is stored as it is |
//! | barrier hash pass | live resident samples in morsels, or [`spool_feed`] with [`Load::Undecoded`] | — | only the hashed field's text |
//! | barrier mask | — (nothing is read or written: [`StageData::masked`] and-combines the mask into the data's own) | — | nothing |
//! | egress of resident shards | [`mem_feed`]: take the shard out of its slot, leaving behind what the deferred mask drops | `ShardedWriter::store_shard` | nothing — samples are resident |
//! | JSONL egress of a spool | [`spool_feed`], [`Load::Undecoded`] | `ShardedWriter::store_jsonl` | nothing — frame bytes are transcoded to JSON text |
//! | cache resume | [`StageData::resume`]: every slot of the entry, checked against its seal | memory while the budget holds; past it, the entry itself is the next stage's input spool | every slot while the budget holds; past it, none — nothing is copied |
//!
//! The frame format is `dj-store`'s business: everything here works on its
//! `Frame`.
//!
//! A barrier writes nothing, in either shape: its keep mask rides on the
//! [`StageData`] and is consumed by whichever pass opens the data next —
//! the following stage's load, the next barrier's hash pass, egress,
//! materialization, a spill or a cache save. Resident shards keep the
//! samples it dropped until then, spool frames keep storing them. A
//! columnar stage's filter verdicts ride the same way: its output frames
//! keep every sample they stored, so no region the stage did not decode is
//! rewritten, and the verdicts become the next spool's mask.

use std::collections::BTreeSet;
use std::sync::Mutex;

use dj_core::sync::lock;
use dj_core::{Dataset, Deduplicator, Fingerprints, MemShardStore, RawColumns, Result, Sample};
use dj_io::{CorpusReader, ShardedWriter};
use dj_store::{CacheManager, Frame, ShardSpool};

use crate::barrier::{hash_loaded, hash_pass, hash_samples, join};
use crate::executor::Executor;
use crate::options::ExecOptions;
use crate::stream::{drive, Feed, Resident, RunCtl};

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
    /// The decoded samples: the decode set's columns of all the deferred
    /// mask keeps, or none for an undecoded load.
    pub shard: Dataset,
    /// The frame the shard was (or was not) decoded from, when it came
    /// from a spool: the sink splices the columns it did not decode from
    /// it.
    pub frame: Option<Frame>,
    /// The spool's deferred mask over the frame's stored samples, if it
    /// carries one: `shard` already honors it; whoever reads `frame` must.
    pub keep: Option<&'a [bool]>,
    /// Decompressed bytes decoded to build `shard`, where the frame
    /// attributes them.
    pub decoded: u64,
    /// When a reader cut the shard: the fields of each sample that no op
    /// of the run touches, left unparsed, for the sink to store beside
    /// `shard` as they are.
    pub raw: Option<RawColumns>,
    /// The input bytes a reader cut the shard from.
    pub read_bytes: u64,
}

impl Loaded<'_> {
    fn samples(shard: Dataset) -> Loaded<'static> {
        Loaded {
            shard,
            frame: None,
            keep: None,
            decoded: 0,
            raw: None,
            read_bytes: 0,
        }
    }
}

impl Resident for Loaded<'_> {
    /// A carried frame charges its payload, a shard a reader cut the input
    /// bytes it was parsed from (counted as it was read, so no value is
    /// walked), and other decoded samples their heap size.
    fn residency(&self) -> (usize, usize) {
        match (&self.frame, &self.raw) {
            (Some(frame), _) => frame.residency(),
            (None, Some(_)) => (self.shard.len(), self.read_bytes as usize),
            (None, None) => (self.shard.len(), self.shard.approx_bytes()),
        }
    }
}

/// An undecoded frame charges the payload it holds.
impl Resident for Frame {
    fn residency(&self) -> (usize, usize) {
        (self.sample_count(), self.payload_len())
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
    /// Decode these columns (`None` = all) of every kept sample, and keep
    /// the frame for the sink to splice the others from.
    Decode(Option<&'a BTreeSet<String>>),
    /// Keep the frame undecoded — a barrier borrows texts out of it, JSONL
    /// egress transcodes it.
    Undecoded,
}

/// The slots of a spill spool, re-readable. Entries the deferred `mask`
/// drops are skipped at load; an undecoded load hands the mask on.
fn spool_feed<'a>(spool: &'a ShardSpool, mask: &'a Mask, load: Load<'a>) -> Feed<'a, Loaded<'a>> {
    Feed::indexed(spool.shard_count(), move |i| {
        let keep = mask.slot(i);
        let frame = spool.read(i)?;
        let (shard, frame, decoded) = match load {
            Load::Decode(cols) => {
                let (shard, decoded) = frame.decode(cols, keep)?;
                (shard, Some(frame), decoded)
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

/// Resident shards, moved out of their slots as the pass reaches them, with
/// the samples the deferred `mask` drops left behind. The resident sink
/// compacts anyway, so no mask is handed on.
fn mem_feed<'a>(shards: Vec<Dataset>, mask: Mask) -> Feed<'a, Loaded<'a>> {
    let n = shards.len();
    let slots = MemShardStore::from_shards(shards);
    Feed::indexed(n, move |i| {
        let mut shard = slots.load_shard(i)?;
        if let Some(keep) = mask.slot(i) {
            shard.retain_mask(keep);
        }
        Ok(Loaded::samples(shard))
    })
}

/// Shards cut off a corpus stream: open-ended, dry when the reader is. The
/// reader and the shard counter share a lock so indices always match
/// stream order, whichever stepper pulls.
pub(crate) fn reader_feed<'a>(
    reader: &'a Mutex<(CorpusReader, usize)>,
    shard_size: usize,
    parsed: Option<&'a BTreeSet<String>>,
) -> Feed<'a, Loaded<'a>> {
    Feed {
        len: None,
        next: Box::new(move || {
            let mut guard = lock(reader);
            let Some(read) = guard.0.next_split_shard(shard_size, parsed)? else {
                return Ok(None);
            };
            guard.1 += 1;
            let loaded = Loaded {
                raw: Some(read.raw),
                read_bytes: read.bytes,
                ..Loaded::samples(read.samples)
            };
            Ok(Some((guard.1 - 1, loaded)))
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
    /// samples still stored. A shard a reader cut with raw JSON columns is
    /// stored beside them, the dropped samples still stored too; anything
    /// else is encoded whole.
    Spool(ShardSpool, Option<&'a BTreeSet<String>>),
}

impl Sink<'_> {
    /// Whether stored shards can carry fingerprints for the next barrier.
    pub(crate) fn carries_fingerprints(&self) -> bool {
        matches!(self, Sink::Spool(..))
    }

    /// Store shard `idx`. `frame` and `raw` are what the load carried,
    /// `keep` says per *stored* sample of that frame, or per sample the
    /// reader produced, whether it survived into `shard` (see
    /// [`widen_keep`]). Returns the region bytes that crossed
    /// input→output undecoded and, when the stored frame still holds
    /// samples `keep` dropped, `keep` itself: the slot's mask, for
    /// [`finish`](Sink::finish).
    pub(crate) fn store(
        &self,
        idx: usize,
        frame: Option<Frame>,
        raw: Option<RawColumns>,
        shard: Dataset,
        keep: Vec<bool>,
    ) -> Result<(u64, Option<Vec<bool>>)> {
        let (out, cols) = match self {
            Sink::Mem(slots) => return slots.store_shard(idx, shard).map(|()| (0, None)),
            Sink::Spool(out, cols) => (out, *cols),
        };
        let (passthrough, samples) = match (frame, raw) {
            (Some(frame), _) => {
                let (parts, samples, passthrough) = frame.store_processed(&shard, cols, &keep)?;
                out.write_frame(idx, &parts, samples)?;
                (passthrough, samples)
            }
            (None, Some(raw)) if raw.has_columns() => {
                (0, out.write_ingested(idx, &shard, &raw, &keep)?)
            }
            (None, _) => {
                out.write_shard(idx, &shard)?;
                (0, shard.len())
            }
        };
        Ok((passthrough, (samples != shard.len()).then_some(keep)))
    }

    /// The stored shards, as the next stage's input. `masks` holds what
    /// [`store`](Sink::store) returned per slot, in slot order (empty when
    /// nothing was stored with dead samples); `fingerprints` each slot's
    /// live samples hashed for the next barrier, in slot order. A spool
    /// carries them, joined, when every slot has its own.
    pub(crate) fn finish(
        self,
        masks: Vec<Option<Vec<bool>>>,
        fingerprints: Vec<Option<Fingerprints>>,
    ) -> Result<StageData> {
        Ok(match self {
            Sink::Mem(slots) => StageData::new(Slots::Mem(slots.into_shards()?)),
            Sink::Spool(out, _) => StageData {
                mask: Mask(masks),
                fingerprints: fingerprints
                    .into_iter()
                    .collect::<Option<Vec<_>>>()
                    .map(join)
                    .transpose()?,
                ..StageData::new(Slots::Spool(out))
            },
        })
    }
}

/// Where the shards are.
enum Slots {
    /// In memory, one dataset per shard.
    Mem(Vec<Dataset>),
    /// In a disk spool of checksummed shard frames (out-of-core mode).
    Spool(ShardSpool),
}

/// Per slot, per *stored* sample: whether it is still part of the dataset.
/// A slot without one (`None`, or past the end) has every stored sample
/// live. A columnar stage's verdicts start it; barriers and-combine into
/// it.
#[derive(Default)]
struct Mask(Vec<Option<Vec<bool>>>);

impl Mask {
    /// The mask over slot `i`'s stored samples, if any.
    fn slot(&self, i: usize) -> Option<&[bool]> {
        self.0.get(i)?.as_deref()
    }
}

/// Where the dataset lives between stages: shards in memory (default) or
/// in a spill spool, plus the keep mask that stands for the samples those
/// shards still store but the dataset no longer holds — what a dedup
/// barrier dropped instead of touching a sample, and what a columnar stage
/// dropped instead of rewriting the regions it never decoded.
///
/// The in-memory representation stays sharded *across* stage boundaries —
/// including through dedup barriers — so the engine never pays a full
/// merge + re-split between stages; the live samples of the shards, in
/// index order, are the dataset.
pub(crate) struct StageData {
    slots: Slots,
    mask: Mask,
    /// Every live sample's fingerprints for the barrier that follows, in
    /// dataset order, when the pass that wrote a spool hashed them as it
    /// stored each shard (fingerprint-on-ingest). Only that barrier takes
    /// them ([`take_fingerprints`](StageData::take_fingerprints)).
    fingerprints: Option<Fingerprints>,
}

impl StageData {
    fn new(slots: Slots) -> StageData {
        StageData {
            slots,
            mask: Mask::default(),
            fingerprints: None,
        }
    }

    /// A whole dataset, resident as one shard.
    pub(crate) fn resident(dataset: Dataset) -> StageData {
        StageData::new(Slots::Mem(vec![dataset]))
    }

    fn slot_count(&self) -> usize {
        match &self.slots {
            Slots::Mem(shards) => shards.len(),
            Slots::Spool(spool) => spool.shard_count(),
        }
    }

    /// Samples of slot `i` still part of the dataset.
    fn shard_len(&self, i: usize) -> usize {
        if let Some(keep) = self.mask.slot(i) {
            return keep.iter().filter(|k| **k).count();
        }
        match &self.slots {
            Slots::Mem(shards) => shards[i].len(),
            Slots::Spool(spool) => spool.shard_len(i).unwrap_or(0),
        }
    }

    /// The live resident samples, in dataset order (none for a spool).
    fn resident_samples(&self) -> impl Iterator<Item = &Sample> {
        let shards = match &self.slots {
            Slots::Mem(shards) => &shards[..],
            Slots::Spool(_) => &[],
        };
        let slots = shards.iter().enumerate();
        slots.flat_map(|(i, shard)| kept(shard.iter(), self.mask.slot(i)))
    }

    pub(crate) fn len(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Heap bytes of the live samples held in memory (a spool holds none).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.resident_samples().map(Sample::approx_bytes).sum()
    }

    /// Sample count per shard, in shard order (what the deferred mask drops
    /// is not counted).
    pub(crate) fn shard_lens(&self) -> Vec<usize> {
        (0..self.slot_count()).map(|i| self.shard_len(i)).collect()
    }

    /// A resumed cache entry as stage input: every slot is read and held to
    /// the seal before the run commits to it, decoded into memory while the
    /// shards fit `budget` (an under-budget run never downgrades to
    /// out-of-core). Past it the entry itself is the input spool: nothing
    /// is copied. At most `budget` bytes and one frame are ever held.
    pub(crate) fn resume(entry: ShardSpool, budget: u64) -> Result<StageData> {
        let (mut shards, mut bytes) = (Some(Vec::new()), 0);
        for i in 0..entry.shard_count() {
            let frame = entry.read(i)?;
            if let Some(held) = &mut shards {
                let shard = frame.decode(None, None)?.0;
                bytes += shard.approx_bytes() as u64;
                held.push(shard);
            }
            // Past the budget what was decoded goes; later slots are only read.
            shards.take_if(|_| bytes > budget);
        }
        let slots = shards.map_or(Slots::Spool(entry), Slots::Mem);
        Ok(StageData::new(slots))
    }

    pub(crate) fn is_spilled(&self) -> bool {
        matches!(self.slots, Slots::Spool(_))
    }

    /// Drop what the mask drops out of resident shards, in place, where
    /// their samples leave. A spool keeps its mask: its readers skip the
    /// entries it drops.
    fn compact(&mut self) {
        if let Slots::Mem(shards) = &mut self.slots {
            for (shard, keep) in shards.iter_mut().zip(std::mem::take(&mut self.mask.0)) {
                if let Some(keep) = keep {
                    shard.retain_mask(&keep);
                }
            }
        }
    }

    /// Merge into one in-memory dataset — the deliberate materialization
    /// at the end of a run that returns its result.
    pub(crate) fn into_dataset(mut self) -> Result<Dataset> {
        self.compact();
        match &mut self.slots {
            Slots::Mem(shards) => Ok(Dataset::from_shards(std::mem::take(shards))),
            Slots::Spool(spool) => {
                let mut out = Dataset::new();
                for i in 0..spool.shard_count() {
                    out.extend(spool.read(i)?.decode(None, self.mask.slot(i))?.0);
                }
                Ok(out)
            }
        }
    }

    /// Persist as cache entry `key` (checkpoint mode retires `replaces`)
    /// without merging. This run's spool becomes the entry by a rename once
    /// the slots the mask thins are entry-filtered in place. Resident
    /// shards are compacted and encoded, and an entry's slots checked and
    /// copied (thinned), into a fresh entry. Spilled data *is* the entry
    /// afterwards, with no mask.
    pub(crate) fn save(
        &mut self,
        cache: &CacheManager,
        key: u64,
        replaces: Option<u64>,
        ctl: &RunCtl,
    ) -> Result<()> {
        self.compact();
        let lens = self.shard_lens();
        let mask = std::mem::take(&mut self.mask);
        match &mut self.slots {
            Slots::Mem(shards) => {
                let mut entry = cache.new_entry(key, ctl.buffers())?;
                for (i, shard) in shards.iter().enumerate() {
                    entry.write_shard(i, shard)?;
                }
                cache.seal(&mut entry, key, replaces)
            }
            Slots::Spool(spool) if spool.is_sealed() => {
                let mut entry = cache.new_entry(key, ctl.buffers())?;
                for (i, len) in lens.into_iter().enumerate() {
                    entry.write_frame_bytes(i, &spool.read_frame_bytes(i, mask.slot(i))?, len)?;
                }
                cache.seal(&mut entry, key, replaces)?;
                *spool = entry;
                Ok(())
            }
            Slots::Spool(spool) => {
                for (i, len) in lens.into_iter().enumerate() {
                    if let Some(keep) = mask.slot(i).filter(|keep| keep.contains(&false)) {
                        spool.write_frame_bytes(i, &spool.read_frame_bytes(i, Some(keep))?, len)?;
                    }
                }
                cache.seal(spool, key, replaces)
            }
        }
    }

    /// The resident shards, moved out of their slots (a spool has none).
    fn take_resident(&mut self) -> Vec<Dataset> {
        match &mut self.slots {
            Slots::Mem(shards) => std::mem::take(shards),
            Slots::Spool(_) => Vec::new(),
        }
    }

    /// Write every shard to `writer` as JSONL, through the one driver.
    /// Resident shards leave their slots as the pass reaches them, thinned
    /// by the mask. A spool's JSONL is transcoded from the undecoded frames.
    pub(crate) fn egress(
        &mut self,
        writer: &ShardedWriter,
        options: &ExecOptions,
        ctl: &RunCtl,
    ) -> Result<()> {
        let workers = options.num_workers;
        match &self.slots {
            Slots::Mem(_) => {
                let shards = mem_feed(self.take_resident(), std::mem::take(&mut self.mask));
                drive(&shards, workers, ctl, |i, loaded| {
                    writer.store_shard(i, &loaded.shard)
                })?;
            }
            Slots::Spool(spool) => {
                let slots = Feed::indexed(spool.shard_count(), |i| spool.read(i));
                drive(&slots, workers, ctl, |i, frame| {
                    writer.store_jsonl(i, |out| frame.write_jsonl(self.mask.slot(i), out))
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
        let mut fingerprints = Vec::with_capacity(shards.len());
        for (i, shard) in shards.into_iter().enumerate() {
            fingerprints.push(
                upcoming
                    .map(|d| hash_samples(d, shard.samples()))
                    .transpose()?,
            );
            sink.store(i, None, None, shard, Vec::new())?;
        }
        sink.finish(Vec::new(), fingerprints)
    }

    /// Cut fresh (single-shard) in-memory data to the configured shard
    /// count, applying the mask as the samples move (their text is not
    /// copied). Carried boundaries, and the mask over them, are reused as
    /// they are; spilled data keeps the cut it was spilled with.
    pub(crate) fn resharded(mut self, options: &ExecOptions) -> StageData {
        let desired = options.shard_count(self.len());
        if desired > 1 && matches!(&self.slots, Slots::Mem(shards) if shards.len() == 1) {
            self.compact();
            if let Slots::Mem(shards) = &mut self.slots {
                let whole = shards.swap_remove(0);
                *shards = whole.into_shards(desired);
            }
        }
        self
    }

    /// Open this data for one decoding pass: the feed that loads its
    /// shards and the sink that stores the pass's output. `cols` is the
    /// pass's decode set (`None` = everything); a spilled frame that can
    /// project honors it and has every other column spliced through
    /// undecoded. In-memory shards, and their mask, are moved into the
    /// feed.
    pub(crate) fn open<'a>(
        &'a mut self,
        exec: &Executor,
        cols: Option<&'a BTreeSet<String>>,
        ctl: &RunCtl,
    ) -> Result<(Feed<'a, Loaded<'a>>, Sink<'a>)> {
        let StageData { slots, mask, .. } = self;
        Ok(match slots {
            Slots::Mem(shards) => {
                let sink = Sink::Mem(MemShardStore::with_capacity(shards.len()));
                (mem_feed(std::mem::take(shards), std::mem::take(mask)), sink)
            }
            Slots::Spool(spool) => {
                let out = exec.new_spool(spool.shard_count(), ctl)?;
                (
                    spool_feed(spool, mask, Load::Decode(cols)),
                    Sink::Spool(out, cols),
                )
            }
        })
    }

    /// The fingerprints the pass that wrote this data carried for the
    /// barrier that follows, taken out: a second barrier behind it finds
    /// none and hashes.
    pub(crate) fn take_fingerprints(&mut self) -> Option<Fingerprints> {
        self.fingerprints.take()
    }

    /// Fingerprint every live sample for `dedup`, in dataset order:
    /// `(fingerprints, region bytes decoded)`. Resident samples are
    /// hashed in place, in sample-balanced morsels, and spilled ones by
    /// borrowing the hashed field's text out of undecoded frames — a full
    /// decode only when the deduplicator hashes whole samples.
    pub(crate) fn hash_live(
        &self,
        dedup: &dyn Deduplicator,
        options: &ExecOptions,
        ctl: &RunCtl,
    ) -> Result<(Fingerprints, u64)> {
        match &self.slots {
            Slots::Mem(_) => {
                let samples: Vec<&Sample> = self.resident_samples().collect();
                let morsels: Vec<&[&Sample]> = samples.chunks(HASH_MORSEL).collect();
                let feed = Feed::indexed(morsels.len(), |i| Ok(morsels[i]));
                hash_pass(&feed, options, ctl, |morsel| {
                    hash_samples(dedup, morsel.iter().copied()).map(|h| (h, 0))
                })
            }
            Slots::Spool(spool) => {
                let load = match dedup.hash_field() {
                    Some(_) => Load::Undecoded,
                    None => Load::Decode(None),
                };
                let feed = spool_feed(spool, &self.mask, load);
                hash_pass(&feed, options, ctl, |loaded| hash_loaded(dedup, loaded))
            }
        }
    }

    /// Apply a barrier's dataset-level keep `mask`, one rule for every
    /// shape: the mask is and-combined, per slot, into the data's own, and
    /// no sample is read, moved or rewritten — the next pass that opens
    /// the data steps over what it drops.
    pub(crate) fn masked(mut self, mask: &[bool]) -> StageData {
        let mut combined = Vec::with_capacity(self.slot_count());
        let mut start = 0;
        for i in 0..self.slot_count() {
            let end = start + self.shard_len(i);
            combined.push(Some(widen_keep(
                self.mask.slot(i),
                mask[start..end].to_vec(),
            )));
            start = end;
        }
        self.mask = Mask(combined);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A direct run's controls: a private control block, a `Fail` ledger.
    fn direct_ctl() -> RunCtl {
        let ledger = dj_io::ErrorLedger::new(dj_core::OnError::Fail, 1.0);
        RunCtl::new(Default::default(), std::sync::Arc::new(ledger))
    }

    /// Every file under `dir`, recursively, by path.
    fn tree(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(tree(&path));
            }
            out.push(path);
        }
        out.sort();
        out
    }

    /// A cached spilled stage is written once: its spool becomes the entry
    /// by a rename, so every slot the mask leaves whole keeps its inode,
    /// and only the thinned one is rewritten, entry-filtered. Resumed over
    /// budget, the entry itself is the next stage's input: the resume
    /// creates no file, and the stage projects and splices its frames.
    #[cfg(unix)]
    #[test]
    fn a_cached_spilled_stage_is_written_once_and_resumed_without_a_copy() {
        use dj_core::{Op, OpParams};
        use dj_store::CacheMode;
        use std::os::unix::fs::MetadataExt;
        let root =
            std::env::temp_dir().join(format!("dj-exec-written-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = CacheManager::new(root.join("cache"), CacheMode::Cache);
        let mut ctl = direct_ctl();
        ctl.spill_dir = Some(cache.root().to_path_buf());
        let mapper = dj_ops::builtin_registry()
            .build("whitespace_normalization_mapper", &OpParams::new())
            .unwrap();
        assert!(matches!(mapper, Op::Mapper(_)));
        let exec = Executor::new(vec![mapper]);
        let shards: Vec<Dataset> = (0..3)
            .map(|s| {
                let mut shard = Dataset::from_texts((0..5).map(|i| format!("doc  {s} {i}  words")));
                for sample in shard.samples_mut() {
                    sample.set_meta("source", format!("crawl-{s}"));
                }
                shard
            })
            .collect();
        let spool = exec.new_spool(3, &ctl).unwrap();
        assert!(spool.dir().starts_with(cache.root()));
        for (i, shard) in shards.iter().enumerate() {
            spool.write_shard(i, shard).unwrap();
        }
        let keep = [true, false, true, true, false];
        let inodes: Vec<u64> = (0..3)
            .map(|i| {
                let slot = spool.dir().join(format!("shard-{i:05}.djs"));
                std::fs::metadata(slot).unwrap().ino()
            })
            .collect();
        let thinned = spool.read_frame_bytes(1, Some(&keep)).unwrap();
        let spool_dir = spool.dir().to_path_buf();
        let mut data = StageData {
            mask: Mask(vec![None, Some(keep.to_vec()), None]),
            ..StageData::new(Slots::Spool(spool))
        };
        data.save(&cache, 7, None, &ctl).unwrap();
        let entry = cache.root().join(format!("{:016x}", 7));
        assert!(!spool_dir.exists(), "the spool was copied, not renamed");
        for (i, ino) in inodes.iter().enumerate() {
            let slot = entry.join(format!("shard-{i:05}.djs"));
            if i == 1 {
                assert_eq!(std::fs::read(&slot).unwrap(), thinned);
            } else {
                assert_eq!(std::fs::metadata(&slot).unwrap().ino(), *ino, "slot {i}");
            }
        }
        // The data is the entry now: no mask, the thinned slot's count.
        assert!(data.mask.0.is_empty());
        assert_eq!(data.shard_lens(), vec![5, 3, 5]);
        let mut eager = shards.clone();
        eager[1].retain_mask(&keep);
        let want = Dataset::from_shards(eager);
        assert_eq!(data.into_dataset().unwrap(), want);
        assert!(entry.is_dir(), "dropping the entry's data removed it");

        // Resumed under budget: decoded into memory.
        let open = || cache.latest_match(&[7], ctl.buffers()).unwrap().unwrap().1;
        let resident = StageData::resume(open(), u64::MAX).unwrap();
        assert!(!resident.is_spilled());
        assert_eq!(resident.into_dataset().unwrap(), want);
        // Resumed over budget: not a file is created, and the entry is the
        // spool the next stage reads, spliced.
        let before = tree(&root);
        let spilled = StageData::resume(open(), 1).unwrap();
        assert!(spilled.is_spilled());
        assert_eq!(spilled.shard_lens(), vec![5, 3, 5]);
        assert_eq!(tree(&root), before, "the resume wrote a file");
        let steps = match &exec.plan().stages()[0] {
            crate::fusion::Stage::Pipeline { steps, .. } => steps.clone(),
            _ => panic!("a mapper's stage is a pipeline stage"),
        };
        let mut report = crate::report::RunReport::default();
        let out = exec
            .run_pipeline_stage(&steps, None, spilled, &ctl, &mut report)
            .unwrap();
        assert!(report.bytes_passthrough > 0, "{report:?}");
        assert_eq!(out.len(), want.len());
        drop(out);
        assert!(entry.is_dir());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A shard a reader cut charges the gauge the input bytes it was read
    /// from, counted as it was read, and carries the fields no op touches
    /// as raw JSON text beside its samples.
    #[test]
    fn a_reader_fed_shard_charges_the_bytes_it_was_read_from() {
        let dir = std::env::temp_dir().join(format!("dj-exec-reader-feed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let lines: Vec<String> = (0..5)
            .map(|i| format!("{{\"text\":\"doc {i}\",\"url\":\"https://example.org/{i}\"}}\n"))
            .collect();
        std::fs::write(dir.join("in.jsonl"), lines.concat()).unwrap();
        let parsed: BTreeSet<String> = ["text".to_string()].into();
        let reader = CorpusReader::from_pattern(&format!("{}/*.jsonl", dir.display())).unwrap();
        let reader = Mutex::new((reader, 0));
        let feed = reader_feed(&reader, 3, Some(&parsed));
        let mut charged = Vec::new();
        while let Some((_, loaded)) = (feed.next)().unwrap() {
            let raw = loaded.raw.as_ref().unwrap();
            assert_eq!(raw.len(), loaded.shard.len());
            assert!(loaded
                .shard
                .iter()
                .all(|s| s.value().get_path("url").is_none()));
            charged.push(loaded.residency());
        }
        let bytes = |r: std::ops::Range<usize>| lines[r].iter().map(String::len).sum::<usize>();
        assert_eq!(charged, [(3, bytes(0..3)), (2, bytes(3..5))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Three resident shards of distinct documents, the middle one of four.
    fn resident_shards() -> Vec<Dataset> {
        let doc = |i: usize| format!("resident document {i} with its own words {}", i * 7);
        vec![
            Dataset::from_texts((0..5).map(doc)),
            Dataset::from_texts((5..9).map(doc)),
            Dataset::from_texts((9..14).map(doc)),
        ]
    }

    fn slices(data: &StageData) -> Vec<(*const Sample, usize)> {
        match &data.slots {
            Slots::Mem(shards) => shards
                .iter()
                .map(|s| (s.samples().as_ptr(), s.len()))
                .collect(),
            Slots::Spool(_) => panic!("resident data spilled"),
        }
    }

    /// Every file in `dir`, with its bytes, in path order.
    fn files(dir: &std::path::Path) -> Vec<Vec<u8>> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        paths.iter().map(|p| std::fs::read(p).unwrap()).collect()
    }

    #[test]
    fn a_resident_mask_moves_nothing_and_every_reader_honors_it() {
        use dj_core::{Op, OpParams};
        use dj_store::CacheMode;
        // The first barrier drops the whole middle shard and two others;
        // the second, over what the first kept, drops two more.
        let first = [
            true, false, true, true, false, false, false, false, false, true, true, true, true,
            true,
        ];
        let second = [true, true, true, false, true, true, true, false];
        // Eager application, on fresh shards each time: `approx_bytes`
        // counts string capacity, which a clone does not keep.
        let retained = |masks: &[&[bool]]| {
            let mut shards = resident_shards();
            for mask in masks {
                let mut start = 0;
                for shard in &mut shards {
                    let end = start + shard.len();
                    shard.retain_mask(&mask[start..end]);
                    start = end;
                }
            }
            shards
        };
        let once = retained(&[&first]);
        let eager = retained(&[&first, &second]);
        let want = Dataset::from_shards(retained(&[&first, &second]));
        let live: Vec<usize> = eager.iter().map(Dataset::len).collect();

        let data = StageData::new(Slots::Mem(resident_shards()));
        let before = slices(&data);
        let data = data.masked(&first);
        assert_eq!(slices(&data), before, "the first mask moved a sample");
        assert_eq!(data.shard_lens(), vec![3, 0, 5]);
        let once_bytes: usize = once.iter().map(Dataset::approx_bytes).sum();
        assert_eq!(data.approx_bytes(), once_bytes);

        // A second mask counts only what the first kept, and-combines.
        let data = data.masked(&second);
        assert_eq!(slices(&data), before, "the second mask moved a sample");
        assert_eq!(data.shard_lens(), live);
        assert_eq!(data.len(), want.len());
        assert_eq!(data.approx_bytes(), want.approx_bytes());

        // Every way out equals eager mask application.
        let masked = || {
            let data = StageData::new(Slots::Mem(resident_shards()));
            data.masked(&first).masked(&second)
        };
        assert_eq!(masked().into_dataset().unwrap(), want);

        let exec = Executor::new(Vec::new());
        let mut data = masked();
        let ctl = direct_ctl();
        let (feed, sink) = data.open(&exec, None, &ctl).unwrap();
        assert!(!sink.carries_fingerprints());
        let mut opened = Vec::new();
        while let Some((i, loaded)) = (feed.next)().unwrap() {
            assert!(loaded.keep.is_none() && loaded.frame.is_none());
            assert_eq!(loaded.residency(), (live[i], eager[i].approx_bytes()));
            opened.push(loaded.shard);
        }
        assert_eq!(opened, eager);

        let root =
            std::env::temp_dir().join(format!("dj-exec-resident-mask-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let Op::Deduplicator(dedup) = dj_ops::builtin_registry()
            .build("document_deduplicator", &OpParams::new())
            .unwrap()
        else {
            panic!("not a deduplicator");
        };
        let options = ExecOptions::default();
        let eager_data = StageData::new(Slots::Mem(eager.clone()));
        let eager_hashes = eager_data.hash_live(dedup.as_ref(), &options, &ctl);
        let eager_hashes = eager_hashes.unwrap();
        assert_eq!(
            masked().hash_live(dedup.as_ref(), &options, &ctl).unwrap(),
            eager_hashes
        );

        // A spill ahead of a barrier hashes the live samples as it writes
        // them: the fingerprints ride on the data, the spool holds slot
        // frames only, and a second barrier would find none left to take.
        let spool_dir = root.join("spool");
        let spool = ShardSpool::create(&spool_dir, 2).unwrap();
        let mut spilled = masked().spill(spool, 2, Some(dedup.as_ref())).unwrap();
        assert_eq!(spilled.shard_lens(), vec![3, 3]);
        assert_eq!(spilled.take_fingerprints(), Some(eager_hashes.0));
        assert!(spilled.take_fingerprints().is_none());
        let mut names: Vec<_> = std::fs::read_dir(&spool_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["shard-00000.djs", "shard-00001.djs"]);
        assert_eq!(spilled.into_dataset().unwrap(), want);

        let saved = |data: &mut StageData, dir: &str| {
            let cache = CacheManager::new(root.join(dir), CacheMode::Cache);
            data.save(&cache, 1, None, &ctl).unwrap();
            files(&root.join(dir).join(format!("{:016x}", 1)))
        };
        let mut data = masked();
        assert_eq!(
            saved(&mut data, "masked"),
            saved(&mut StageData::new(Slots::Mem(eager.clone())), "eager")
        );
        assert_eq!(slices(&data).iter().map(|s| s.1).collect::<Vec<_>>(), live);
        assert_eq!(
            data.into_dataset().unwrap(),
            want,
            "a save compacts in place"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
