//! What a run reports back: per-OP [`OpReport`]s and the whole-pipeline
//! [`RunReport`] (the Fig. 4(b)/(c) visualizations and the Fig. 8/9
//! measurements read these; the Fig. 4(a) tracer is
//! `dj_analyze::trace_op`).

use std::time::Duration;

use dj_core::ShardStats;

use crate::fusion::PlanStep;

/// Per-OP execution report.
#[derive(Debug, Clone)]
pub struct OpReport {
    pub name: String,
    pub samples_in: usize,
    pub samples_out: usize,
    /// Samples removed (filters/dedups) at this step.
    pub removed: usize,
    /// Samples whose text a mapper changed.
    pub changed: usize,
    /// The step's critical-path time: the maximum across shards of the
    /// time each shard spent inside this step.
    pub duration: Duration,
    pub fused: bool,
    /// Spill region bytes decoded to run this step (spilled stages only;
    /// every step of a stage reports the stage's shared decode).
    pub bytes_decoded: u64,
}

/// Whole-pipeline execution report (feeds the Fig. 4 visualizations and the
/// Fig. 8/9 measurements).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub ops: Vec<OpReport>,
    pub total_duration: Duration,
    pub initial_samples: usize,
    pub final_samples: usize,
    /// Peak approximate dataset heap footprint observed at stage
    /// boundaries while the dataset was held in memory (inside a stage only
    /// one shard per worker is hot).
    pub peak_bytes: usize,
    pub fused_groups: usize,
    /// Plan steps that were resumed from cache instead of executed.
    pub resumed_steps: usize,
    /// Pipeline stages the plan was segmented into.
    pub stages: usize,
    /// Shards cut for the largest pipeline stage.
    pub shards: usize,
    /// Whether the run spilled shards to disk (out-of-core mode).
    pub spilled: bool,
    /// Peak samples simultaneously resident in the streaming stage
    /// machinery. This stays ≤ `num_workers × shard_size` — the engine's
    /// constant-memory bound while stages stream spilled shards: every pass
    /// holds one live shard per worker. Read off the run's control block
    /// (`JobControl`), so a runtime job's peak covers all its attempts.
    pub peak_resident_samples: usize,
    /// Approximate heap bytes of those resident samples at the peak: at
    /// most `num_workers` shards' worth (`num_workers × shard_size`
    /// samples), which is what the budget-derived spill cut sizes shards
    /// against. A shard a corpus reader cut is charged the input bytes it
    /// was read from, which its parsed fields and raw JSON text hold.
    pub peak_resident_bytes: usize,
    /// Total wall time spent inside dedup barriers: fingerprinting and
    /// clustering. No barrier applies its mask; it rides on the data to the
    /// next pass, resident or spilled.
    pub barrier_duration: Duration,
    /// Spilled dedup barriers that skipped their fingerprint streaming
    /// pass because the pass that wrote the spool hashed every shard it
    /// stored (fingerprint-on-ingest) and the data carried the fingerprints
    /// in memory: the barrier took them, clustered, and opened no frame at
    /// all.
    pub fingerprinted_barriers: usize,
    /// Raw corpus bytes consumed by the ingest stream of a corpus run
    /// ([`ExecOptions::input`](crate::ExecOptions::input)).
    pub ingest_bytes: u64,
    /// Bytes physically written by the egress writer (resumed parts
    /// excluded).
    pub egress_bytes: u64,
    /// Wall time of the ingest stage (read + parse + first pipeline stage).
    pub ingest_duration: Duration,
    /// Wall time of the egress stage (serialize + write + manifest), or of
    /// materializing the returned dataset when no output is set.
    pub egress_duration: Duration,
    /// Whether mid-run replanning was in force for this run.
    pub adaptive: bool,
    /// Mid-run re-plans performed (at most one per pipeline stage).
    pub replans: usize,
    /// Per-barrier clustering worker decisions, in execution order.
    pub barrier_decisions: Vec<BarrierDecision>,
    /// Region bytes the spilled stages actually decoded — the projected
    /// columns' share of the spilled data (plus full decodes
    /// where a step declared `FieldSet::All`) and the
    /// column regions a barrier's hash pass read. Applying a barrier's
    /// mask decodes nothing.
    pub bytes_decoded: u64,
    /// Region bytes of the untouched columns that crossed stage
    /// input→output verbatim, never read — the work projection pushdown
    /// avoided. Always whole regions: samples a stage
    /// drops stay stored under the spool's mask. Pipeline stages only: a
    /// spilled barrier rewrites no frame (its mask rides on the spool), so
    /// it adds nothing here, and neither does egress.
    pub bytes_passthrough: u64,
    /// Records dropped by the `on_error: skip` policy (malformed ingest
    /// lines plus samples an OP rejected).
    pub records_skipped: u64,
    /// Records preserved in the quarantine sidecar by `on_error:
    /// quarantine`.
    pub records_quarantined: u64,
    /// Final bad-record ratio: `(skipped + quarantined) / records seen`.
    pub error_ratio: f64,
}

/// How many workers a dedup barrier offered its clustering, and why.
#[derive(Debug, Clone)]
pub struct BarrierDecision {
    /// The deduplicator's name.
    pub name: String,
    /// Samples entering the barrier.
    pub samples: usize,
    /// Worker threads offered to `Deduplicator::cluster`. The built-in
    /// MinHash and SimHash clustering use up to this many (at most one per
    /// band or block); exact and paragraph clustering always use one.
    pub workers: usize,
    /// Whether more than one worker was offered (`workers > 1`).
    pub parallel: bool,
    /// The gating rule that decided (`"parallel"`, `"single-worker"`,
    /// `"small-input"`).
    pub reason: &'static str,
}
impl RunReport {
    /// The Fig. 4(b) funnel: `(op name, samples remaining after it)`.
    pub fn funnel(&self) -> Vec<(String, usize)> {
        self.ops
            .iter()
            .map(|r| (r.name.clone(), r.samples_out))
            .collect()
    }
}

/// Merge per-shard stage stats (in shard order) into the run report's
/// per-op entries.
pub(crate) fn merge_stage_reports(
    steps: &[PlanStep],
    per_shard: &[Vec<ShardStats>],
    report: &mut RunReport,
) {
    for (k, step) in steps.iter().enumerate() {
        let stat = ShardStats::merged(per_shard.iter().map(|stats| &stats[k]));
        report.ops.push(OpReport {
            name: step.name(),
            samples_in: stat.samples_in,
            samples_out: stat.samples_out,
            removed: stat.removed,
            changed: stat.changed,
            duration: stat.duration,
            fused: step.is_fused(),
            bytes_decoded: stat.bytes_decoded,
        });
    }
}
