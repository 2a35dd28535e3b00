//! A pipeline stage: a run of sample-local steps driven whole over every
//! shard. [`Executor::drive_stage`] is the one stage driver — any feed,
//! any sink — and [`run_stage_on_shard`] the per-shard step loop it calls;
//! [`StageSchedule`] is the mid-run replanner that may reorder a stage's
//! commutable steps between shards.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dj_core::sync::lock;
use dj_core::{
    faults, Dataset, Deduplicator, DjError, FieldSet, OpCost, Result, Sample, SampleContext,
    ShardStats,
};
use dj_io::ErrorLedger;

use crate::barrier::hash_samples;
use crate::data::{widen_keep, Loaded, Sink, StageData};
use crate::executor::Executor;
use crate::fusion::PlanStep;
use crate::report::{merge_stage_reports, RunReport};
use crate::stream::{drive, Feed, RunCtl};

impl Executor {
    /// Build the mid-run replan schedule for a pipeline stage: present
    /// only when adaptive planning is in force and the stage contains a
    /// commutable window (≥ 2 adjacent commutable steps). A stage of known
    /// shard count `n` measures a quarter of them, clamped to
    /// `[1, MAX_MEASURED_SHARDS]`, and only schedules when at least one
    /// shard runs under the revised order; a stage whose count is unknown
    /// until its feed runs dry (a corpus run's ingest stage) measures
    /// `MAX_MEASURED_SHARDS`.
    fn stage_schedule(&self, steps: &[PlanStep], nshards: Option<usize>) -> Option<StageSchedule> {
        if !self.options.adaptive || steps.len() < 2 {
            return None;
        }
        let replan_after = nshards.map_or(MAX_MEASURED_SHARDS, |n| {
            (n / 4).clamp(1, MAX_MEASURED_SHARDS)
        });
        if nshards.is_some_and(|n| n <= replan_after) {
            return None;
        }
        StageSchedule::new(steps, replan_after)
    }

    /// The one stage driver: pull each shard off `feed`, run it through
    /// the stage's steps in the order current when it starts, remap its
    /// stats onto plan positions, feed them to the replanner, fingerprint
    /// the survivors for `next_dedup` when the sink can carry fingerprints
    /// (so the barrier that follows skips its hash pass), and store the
    /// outcome in `sink`, which is finished into the stage's output with
    /// the masks of slots that still store dropped samples and the
    /// survivors' fingerprints. Per-shard stats and fingerprints
    /// join in shard order, so output and report are independent of worker
    /// scheduling.
    pub(crate) fn drive_stage(
        &self,
        steps: &[PlanStep],
        next_dedup: Option<&dyn Deduplicator>,
        feed: &Feed<'_, Loaded<'_>>,
        sink: Sink<'_>,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<StageData> {
        // Kept samples pass every filter of a commutable window under any
        // order and collect the same (key-sorted) stats — save a key two
        // filters write, which the one run last sets — and reordering never
        // changes the stage's union footprint, so neither the output nor a
        // projected decode set depends on the order a shard ran.
        let sched = self.stage_schedule(steps, feed.len);
        let fp_dedup = next_dedup.filter(|_| sink.carries_fingerprints());
        let per_shard = drive(feed, self.options.num_workers, ctl, |i, loaded| {
            let Loaded {
                shard,
                frame,
                keep: deferred,
                decoded,
            } = loaded;
            let mut ctx = SampleContext::new();
            let order = sched.as_ref().map(StageSchedule::order);
            let live = order.as_ref().map_or(steps, |o| &o.steps);
            let mut outcome = run_stage_on_shard(live, shard, &mut ctx, ctl.ledger(), i)?;
            if let (Some(sched), Some(order)) = (&sched, &order) {
                outcome = remap_outcome(order, outcome);
                sched.observe(&outcome.stats);
            }
            let fingerprints = fp_dedup
                .map(|d| hash_samples(d, outcome.shard.samples()))
                .transpose()?;
            let keep = widen_keep(deferred, outcome.keep);
            let (passthrough, mask) = sink.store(i, frame, outcome.shard, keep)?;
            for st in &mut outcome.stats {
                st.bytes_decoded = decoded;
            }
            Ok((outcome.stats, decoded, passthrough, mask, fingerprints))
        })?;
        report.shards = report.shards.max(per_shard.len());
        let mut merged = Vec::with_capacity(per_shard.len());
        let mut masks = Vec::with_capacity(per_shard.len());
        let mut fingerprints = Vec::with_capacity(per_shard.len());
        for (stats, decoded, passthrough, mask, fp) in per_shard {
            report.bytes_decoded += decoded;
            report.bytes_passthrough += passthrough;
            merged.push(stats);
            masks.push(mask);
            fingerprints.push(fp);
        }
        merge_stage_reports(steps, &merged, report);
        if let Some(sched) = &sched {
            report.replans += sched.replans.load(Ordering::Relaxed);
        }
        sink.finish(masks, fingerprints)
    }

    /// A pipeline stage over any shape: open the data's feed and sink and
    /// hand them to the stage driver. A spool decodes only the stage's
    /// footprint columns.
    pub(crate) fn run_pipeline_stage(
        &self,
        steps: &[PlanStep],
        next_dedup: Option<&dyn Deduplicator>,
        data: StageData,
        ctl: &RunCtl,
        report: &mut RunReport,
    ) -> Result<StageData> {
        if steps.is_empty() {
            return Ok(data);
        }
        let cols = stage_decode_columns(steps, next_dedup);
        let mut data = data.resharded(&self.options);
        let (feed, sink) = data.open(self, cols.as_ref(), ctl)?;
        self.drive_stage(steps, next_dedup, &feed, sink, ctl, report)
    }
}

/// The top-level columns a spilled pipeline stage must decode, or `None`
/// for every column (a step declared [`FieldSet::All`]).
///
/// The set is the union of every step's read+write footprint, plus the
/// next barrier's read footprint when fingerprints are computed on spill.
fn stage_decode_columns(
    steps: &[PlanStep],
    next_dedup: Option<&dyn Deduplicator>,
) -> Option<BTreeSet<String>> {
    let mut fields = steps
        .iter()
        .fold(FieldSet::none(), |acc, s| acc.union(s.footprint()));
    if let Some(dedup) = next_dedup {
        fields = fields.union(dedup.fields_read());
    }
    fields.top_level_columns()
}

/// The steps of one pipeline stage in a live execution order, plus the
/// permutation back to canonical (plan) positions.
struct StepOrder {
    /// Steps in execution order.
    steps: Vec<PlanStep>,
    /// `canon[pos]` = canonical index of `steps[pos]` — remaps per-shard
    /// stats onto the plan's step list before merging.
    canon: Vec<usize>,
}

/// Most shards a stage measures before it replans: a quarter of a known
/// shard count is clamped to it, and a stage of unknown count (the ingest
/// stage of a corpus run) measures exactly this many.
const MAX_MEASURED_SHARDS: usize = 8;

/// Floor on the drop probability in the score denominator. A filter that
/// keeps everything still gets a finite score — `1000 ×` its per-sample
/// cost — which ranks keep-all filters after selective ones of similar
/// cost instead of dividing by zero.
const MIN_DROP_RATIO: f64 = 1e-3;

/// Assumed keep ratio for a step that saw no sample.
const FALLBACK_KEEP_RATIO: f64 = 0.9;

/// The cheapest-and-most-selective-first ranking score (ascending = run
/// earlier), the classic optimal-filter-ordering rule:
/// `ns_per_sample / max(1 − keep_ratio, MIN_DROP_RATIO)`. A filter that is
/// fast *and* drops many samples pays for itself before the expensive,
/// keep-everything steps run.
fn rank_score(ns_per_sample: f64, keep_ratio: f64) -> f64 {
    let drop = (1.0 - keep_ratio.clamp(0.0, 1.0)).max(MIN_DROP_RATIO);
    ns_per_sample.max(0.0) / drop
}

/// Pseudo-score for a step that saw no sample, from its static cost tier
/// (a fused step costs as much as its most expensive member: the shared
/// context is computed once, so that member dominates), on the same scale
/// as measured scores.
fn fallback_score(step: &PlanStep) -> f64 {
    let cost = match step {
        PlanStep::Mapper(m) => m.cost(),
        PlanStep::Filters(fs) => fs.iter().map(|f| f.cost()).max().unwrap_or(OpCost::Cheap),
        PlanStep::Dedup(_) => OpCost::Expensive,
    };
    rank_score(cost.fallback_ns_per_sample(), FALLBACK_KEEP_RATIO)
}

/// Mid-run replanner state for one pipeline stage.
///
/// The stage starts under its canonical (plan) step order. Every finished
/// shard folds its per-step measurements in; once `replan_after` shards
/// have been measured, each commutable window is re-ranked by
/// [`rank_score`], and later shards run under the revised order. One
/// replan per stage: measurements beyond the trigger point do not flip
/// the order again (a mid-run order oscillating per shard would thrash
/// caches for no measurable gain). Nothing outlives the run.
///
/// Legality: only maximal runs of adjacent
/// [`commutable`](PlanStep::commutable) steps are permuted, so mappers and
/// non-commutable filters pin their positions and output is byte-identical
/// under every order the replanner can pick.
struct StageSchedule {
    /// The canonical step list (plan order) — merge target for stats.
    canonical: Vec<PlanStep>,
    /// Canonical-index ranges within which steps may be permuted.
    windows: Vec<std::ops::Range<usize>>,
    /// The order new shards pick up (swapped at the replan).
    current: Mutex<Arc<StepOrder>>,
    /// Per-step totals (durations summed) over the shards measured so far,
    /// and how many that is.
    live: Mutex<(Vec<ShardStats>, usize)>,
    replan_after: usize,
    /// Replans that actually changed the order (reported).
    replans: AtomicUsize,
}

impl StageSchedule {
    /// `None` when the stage has no window of ≥ 2 adjacent commutable
    /// steps — nothing could legally move.
    fn new(steps: &[PlanStep], replan_after: usize) -> Option<StageSchedule> {
        let mut windows = Vec::new();
        let mut start = 0;
        for run in steps.chunk_by(|a, b| a.commutable() && b.commutable()) {
            if run.len() >= 2 {
                windows.push(start..start + run.len());
            }
            start += run.len();
        }
        if windows.is_empty() {
            return None;
        }
        Some(StageSchedule {
            canonical: steps.to_vec(),
            windows,
            current: Mutex::new(Arc::new(StepOrder {
                steps: steps.to_vec(),
                canon: (0..steps.len()).collect(),
            })),
            live: Mutex::new((vec![ShardStats::default(); steps.len()], 0)),
            replan_after,
            replans: AtomicUsize::new(0),
        })
    }

    /// The order a shard starting now should execute under.
    fn order(&self) -> Arc<StepOrder> {
        Arc::clone(&lock(&self.current))
    }

    /// Fold one shard's canonical-order stats in. Exactly one shard makes
    /// the measured count hit `replan_after`: that one replans.
    fn observe(&self, stats: &[ShardStats]) {
        let mut live = lock(&self.live);
        for (total, s) in live.0.iter_mut().zip(stats) {
            total.samples_in += s.samples_in;
            total.samples_out += s.samples_out;
            total.duration += s.duration;
        }
        live.1 += 1;
        if live.1 == self.replan_after {
            self.replan(&live.0);
        }
    }

    /// Re-rank each commutable window from the measured totals and publish
    /// the revised order (stable sort: unmeasured steps keep their static
    /// position among equals).
    fn replan(&self, totals: &[ShardStats]) {
        let scores: Vec<f64> = totals
            .iter()
            .zip(&self.canonical)
            .map(|(t, step)| match t.samples_in {
                // An earlier step drained the funnel before this one saw
                // a sample — fall back to the static tier.
                0 => fallback_score(step),
                n => rank_score(
                    t.duration.as_nanos() as f64 / n as f64,
                    t.samples_out as f64 / n as f64,
                ),
            })
            .collect();
        let mut canon: Vec<usize> = (0..self.canonical.len()).collect();
        for w in &self.windows {
            canon[w.clone()].sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        }
        if canon.iter().enumerate().all(|(pos, &c)| pos == c) {
            return; // measurements agree with the current order
        }
        let steps = canon.iter().map(|&c| self.canonical[c].clone()).collect();
        *lock(&self.current) = Arc::new(StepOrder { steps, canon });
        self.replans.fetch_add(1, Ordering::Relaxed);
    }
}

/// Remap a shard outcome produced under `order` back onto canonical step
/// positions, so per-shard stats merge by plan index no matter which
/// order each shard actually ran.
fn remap_outcome(order: &StepOrder, outcome: ShardOutcome) -> ShardOutcome {
    let mut stats = vec![ShardStats::default(); order.canon.len()];
    for (pos, s) in outcome.stats.into_iter().enumerate() {
        stats[order.canon[pos]] = s;
    }
    ShardOutcome { stats, ..outcome }
}

/// What one shard produces after running a whole pipeline stage.
struct ShardOutcome {
    shard: Dataset,
    stats: Vec<ShardStats>,
    /// Per input sample, whether it survived the stage (in input order).
    /// Widened over the frame's stored samples, it is what a spool's
    /// splice leaves on the spool as the slot's mask, in place of cutting
    /// the dropped samples out of the columns it copies.
    keep: Vec<bool>,
}

/// What one step decided for one sample.
enum Verdict {
    Keep { changed: bool },
    Drop,
}

/// Apply one step to one sample. An OP failure comes back with the OP's
/// name, for the error policy's provenance.
#[inline]
fn apply_step(
    step: &PlanStep,
    sample: &mut Sample,
    ctx: &mut SampleContext,
) -> std::result::Result<Verdict, (DjError, &'static str)> {
    match step {
        PlanStep::Mapper(m) => {
            let changed = m.process(sample, ctx).map_err(|e| (e, m.name()))?;
            if changed {
                ctx.invalidate();
            }
            Ok(Verdict::Keep { changed })
        }
        PlanStep::Filters(filters) => {
            // Each member measures, then decides, on one shared context
            // (fused filters derive words/lines views once), and the first
            // drop ends the step: no member decides on another's stat.
            let stop = filters.iter().find_map(|f| {
                let kept = f
                    .compute_stats(sample, ctx)
                    .and_then(|()| f.process(sample));
                match kept {
                    Ok(keep) => (!keep).then_some(Ok(Verdict::Drop)),
                    Err(e) => Some(Err((e, f.name()))),
                }
            });
            // Fused-OP contract: contexts are cleaned after the op.
            ctx.clear();
            stop.unwrap_or(Ok(Verdict::Keep { changed: false }))
        }
        PlanStep::Dedup(_) => unreachable!("dedup steps are barriers, not pipeline steps"),
    }
}

/// Run every step of a stage over one shard, sample by sample: each sample
/// flows through the full mapper/filter chain while it is hot in cache,
/// and dropped samples never reach later steps.
///
/// A sample that makes an OP error is routed through the ledger's
/// `on_error` policy — dropped (and optionally quarantined with
/// `op@shard-N` provenance) instead of failing the stage — unless the
/// policy is `fail` or the error budget is spent.
fn run_stage_on_shard(
    steps: &[PlanStep],
    shard: Dataset,
    ctx: &mut SampleContext,
    ledger: &ErrorLedger,
    shard_idx: usize,
) -> Result<ShardOutcome> {
    // Chaos-harness injection point: one fault per stage-shard pass.
    faults::check("exec.worker.step")?;
    let mut stats = vec![ShardStats::default(); steps.len()];
    let mut kept = Vec::with_capacity(shard.len());
    let mut keep_mask = Vec::with_capacity(shard.len());

    'samples: for mut sample in shard {
        ctx.invalidate();
        // One clock read per step boundary: each step's end timestamp is
        // the next step's start, halving timing overhead in this hot loop.
        let mut step_start = Instant::now();
        for (k, step) in steps.iter().enumerate() {
            stats[k].samples_in += 1;
            let verdict = match apply_step(step, &mut sample, ctx) {
                Ok(verdict) => verdict,
                Err((e, op)) => {
                    ledger.absorb(e, &format!("{op}@shard-{shard_idx}"), || {
                        sample.value().clone()
                    })?;
                    stats[k].removed += 1;
                    keep_mask.push(false);
                    continue 'samples;
                }
            };
            let now = Instant::now();
            stats[k].duration += now - step_start;
            step_start = now;
            match verdict {
                Verdict::Keep { changed } => {
                    stats[k].samples_out += 1;
                    stats[k].changed += usize::from(changed);
                }
                Verdict::Drop => {
                    stats[k].removed += 1;
                    keep_mask.push(false);
                    continue 'samples;
                }
            }
        }
        kept.push(sample);
        keep_mask.push(true);
    }

    Ok(ShardOutcome {
        shard: Dataset::from_samples(kept),
        stats,
        keep: keep_mask,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_prefers_cheap_and_selective() {
        // Cheap + selective beats expensive + unselective.
        assert!(rank_score(100.0, 0.4) < rank_score(5_000.0, 0.97));
        // Same cost: the more selective filter ranks first.
        assert!(rank_score(100.0, 0.2) < rank_score(100.0, 0.8));
        // Same selectivity: the cheaper filter ranks first.
        assert!(rank_score(100.0, 0.5) < rank_score(200.0, 0.5));
        // Keep-all filters get a large but finite score.
        let keep_all = rank_score(100.0, 1.0);
        assert!(keep_all.is_finite() && keep_all > rank_score(100.0, 0.9));
    }
}
