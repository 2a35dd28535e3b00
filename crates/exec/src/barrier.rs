//! The dedup barrier — the one pipeline breaker. Every shape runs the same
//! three steps: fingerprint every sample ([`hash_pass`], or the
//! fingerprint-on-ingest sidecars when the data carries them), cluster
//! the dataset-level keep mask on the worker pool, and hand the mask to the
//! data ([`StageData::masked`]: resident shards and spool slots alike carry
//! it to whichever pass opens them next; no sample is touched).

use std::time::Instant;

use dj_core::{Deduplicator, DjError, Fingerprints, Result, Sample, SampleContext};

use crate::data::{kept, Loaded, StageData};
use crate::executor::Executor;
use crate::options::ExecOptions;
use crate::report::{BarrierDecision, OpReport, RunReport};
use crate::stream::{drive, Feed, Resident, RunCtl};

/// Minimum samples *per worker* before parallel dedup barrier clustering
/// pays for its section cost; smaller inputs cluster with one worker (the
/// mask is identical either way).
const MIN_BARRIER_SAMPLES_PER_WORKER: usize = 1024;

/// What one fingerprint is computed from: a text borrowed from an
/// undecoded frame, or a whole resident sample.
enum HashInput<'a> {
    Text(&'a str),
    Sample(&'a Sample),
}

/// The fingerprint loop: every input's words, in order, each written
/// straight into the one buffer — nothing is allocated per sample.
fn fingerprint<'a>(
    dedup: &dyn Deduplicator,
    inputs: impl Iterator<Item = HashInput<'a>>,
) -> Result<Fingerprints> {
    let mut ctx = SampleContext::new();
    let mut out = Fingerprints::with_capacity(inputs.size_hint().0);
    for input in inputs {
        ctx.invalidate();
        out.push_with(|words| match input {
            HashInput::Text(text) => dedup.fingerprint_text(text, &mut ctx, words),
            HashInput::Sample(sample) => dedup.fingerprint(sample, &mut ctx, words),
        })?;
        ctx.clear();
    }
    Ok(out)
}

/// Fingerprint whole resident samples.
pub(crate) fn hash_samples<'a>(
    dedup: &dyn Deduplicator,
    samples: impl IntoIterator<Item = &'a Sample>,
) -> Result<Fingerprints> {
    fingerprint(dedup, samples.into_iter().map(HashInput::Sample))
}

/// Fingerprint one spool load, plus the decompressed bytes decoded to
/// reach the texts. An undecoded frame lends out the hashed field's text of
/// the samples its deferred mask keeps, so no `Sample` is ever built;
/// decoded samples (a deduplicator that hashes whole samples) hash as such.
pub(crate) fn hash_loaded(
    dedup: &dyn Deduplicator,
    loaded: &Loaded<'_>,
) -> Result<(Fingerprints, u64)> {
    let (Some(frame), Some(field)) = (&loaded.frame, dedup.hash_field()) else {
        return Ok((hash_samples(dedup, loaded.shard.samples())?, 0));
    };
    frame.with_texts(field, |texts| {
        let live = kept(texts.iter(), loaded.keep);
        fingerprint(dedup, live.map(|t| HashInput::Text(t)))
    })
}

/// The barrier's hash pass: `hash` every shard of `feed` — "the texts of
/// the hashed field, per shard", whatever the feed loads — on the worker
/// pool, joining fingerprints and decoded-byte counts in shard order.
pub(crate) fn hash_pass<T: Resident + Send>(
    feed: &Feed<'_, T>,
    options: &ExecOptions,
    ctl: &RunCtl,
    hash: impl Fn(&T) -> Result<(Fingerprints, u64)> + Sync,
) -> Result<(Fingerprints, u64)> {
    let per_shard = drive(feed, options.num_workers, ctl, |_, view| hash(&view))?;
    let mut all = Fingerprints::with_capacity(per_shard.iter().map(|(fp, _)| fp.len()).sum());
    let mut decoded = 0;
    for (fingerprints, bytes) in per_shard {
        all.append(&fingerprints)?;
        decoded += bytes;
    }
    Ok((all, decoded))
}

impl Executor {
    /// Worker count for barrier clustering, gated on measured benefit: the
    /// pool size only when more than one worker is available *and* the
    /// input is large enough to amortize the section cost
    /// ([`MIN_BARRIER_SAMPLES_PER_WORKER`] samples per worker). The mask is
    /// identical either way; this is a pure scheduling decision, recorded
    /// in [`RunReport::barrier_decisions`].
    fn gated_mask_workers(
        &self,
        dedup: &dyn Deduplicator,
        samples: usize,
        report: &mut RunReport,
    ) -> usize {
        let pool = self.options.num_workers.max(1);
        let (workers, reason) = if pool <= 1 {
            (1, "single-worker")
        } else if samples < pool * MIN_BARRIER_SAMPLES_PER_WORKER {
            (1, "small-input")
        } else {
            (pool, "parallel")
        };
        report.barrier_decisions.push(BarrierDecision {
            name: dedup.name().to_string(),
            samples,
            workers,
            parallel: workers > 1,
            reason,
        });
        workers
    }

    /// A dedup barrier over any shape, with shard carry-through: the data
    /// keeps its cut, and the keep mask rides on it to the next pass. A
    /// spilled barrier with fingerprint sidecars present touches no frame
    /// at all: it reads the sidecars, clusters, and leaves the mask on the
    /// spool.
    pub(crate) fn run_dedup_stage(
        &self,
        dedup: &dyn Deduplicator,
        data: StageData,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<StageData> {
        let cap = self.options.trace_examples;
        let t0 = Instant::now();
        let lens = data.shard_lens();
        let in_len: usize = lens.iter().sum();
        report.shards = report.shards.max(lens.len());

        let (fingerprints, hash_bytes, from_sidecars) =
            data.fingerprints(dedup, &self.options, ctl)?;
        report.fingerprinted_barriers += usize::from(from_sidecars);
        // Clustering, with the workers the gate offers (the mask is
        // identical either way).
        let mask_workers = self.gated_mask_workers(dedup, in_len, report);
        let mask = dedup.cluster(&fingerprints, mask_workers)?;
        drop(fingerprints);
        if mask.len() != in_len {
            return Err(DjError::op(
                dedup.name(),
                format!("a mask of {} verdicts for {in_len} samples", mask.len()),
            ));
        }

        let (out, trace) = data.masked(&mask, cap)?;
        let removed = mask.iter().filter(|&&k| !k).count();
        let elapsed = t0.elapsed();
        report.barrier_duration += elapsed;
        report.bytes_decoded += hash_bytes;
        report.ops.push(OpReport {
            name: dedup.name().to_string(),
            samples_in: in_len,
            samples_out: in_len - removed,
            removed,
            changed: 0,
            duration: elapsed,
            fused: false,
            bytes_decoded: hash_bytes,
            trace,
        });
        Ok(out)
    }
}
