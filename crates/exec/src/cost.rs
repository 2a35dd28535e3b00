//! The measured cost model behind the adaptive planner.
//!
//! Every run already measures what the static `OpCost` table only guesses:
//! per-step wall time and funnel selectivity. [`CostModel`] folds those
//! observations into EWMA aggregates keyed by *step name* (a single
//! filter's name, or the composite `fused(a+b)` name of a fused step) and
//! ranks steps by the classic optimal-filter-ordering score
//!
//! ```text
//! score = ns_per_sample / max(1 − keep_ratio, ε)
//! ```
//!
//! — ascending score is cheapest-and-most-selective first: a filter that
//! is fast *and* drops many samples pays for itself before the expensive,
//! keep-everything steps run. Steps that have never been measured (or not
//! on enough samples to trust) fall back to a pseudo-score derived from
//! their static [`OpCost`] tier, so measured and unmeasured steps rank on
//! one scale and a cold model reproduces the static plan's intent.
//!
//! The model persists as a checksummed `DJCS` sidecar
//! ([`dj_store::StatsSidecar`]) under the cache root (or an explicit
//! stats dir), so the *second* run of a misordered recipe plans from the
//! first run's measurements. A missing or corrupt sidecar simply starts
//! the model cold — it can never fail a run.

use std::path::Path;
use std::time::Duration;

use dj_core::{OpCost, Result};
use dj_store::{OpAggregate, StatsSidecar};

use crate::report::RunReport;

/// EWMA smoothing factor: each new run contributes 30% of the aggregate,
/// so a one-off slow run (page cache miss, CI noise) cannot flip the plan
/// on its own, while a genuine workload shift converges in a few runs.
pub const EWMA_ALPHA: f64 = 0.3;

/// Observations covering fewer samples than this are kept (they still
/// seed the EWMA) but not *trusted* for ranking — a 3-sample shard tells
/// you nothing about ns/sample.
pub const MIN_MEASURED_SAMPLES: u64 = 32;

/// Floor on the drop probability in the score denominator. A filter that
/// keeps everything still gets a finite score — `1000 ×` its per-sample
/// cost — which correctly ranks keep-all filters after selective ones of
/// similar cost instead of dividing by zero.
pub const MIN_DROP_RATIO: f64 = 1e-3;

/// Assumed keep ratio for steps with no measured selectivity.
const FALLBACK_KEEP_RATIO: f64 = 0.9;

/// The cheapest-and-most-selective-first ranking score (ascending = run
/// earlier). Shared by the plan-time reorderer and the mid-run replanner
/// so both rank with exactly the same formula.
pub fn rank_score(ns_per_sample: f64, keep_ratio: f64) -> f64 {
    let drop = (1.0 - keep_ratio.clamp(0.0, 1.0)).max(MIN_DROP_RATIO);
    ns_per_sample.max(0.0) / drop
}

/// Pseudo-score for a step that has never been measured, derived from the
/// static cost tier (`OpCost::fallback_ns_per_sample`, the single source
/// of truth shared with `OpCost::rank`).
pub fn fallback_score(cost: OpCost) -> f64 {
    rank_score(cost.fallback_ns_per_sample(), FALLBACK_KEEP_RATIO)
}

/// One raw step observation from this process, kept for merge-on-save.
#[derive(Debug, Clone)]
struct Observation {
    name: String,
    samples_in: usize,
    samples_out: usize,
    duration: Duration,
}

/// EWMA cost/selectivity aggregates per plan-step name, with scalar
/// tunables (measured throughput figures the executor uses to auto-size
/// shards).
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    stats: StatsSidecar,
    /// Raw observations made since load (or since the last save).
    /// [`CostModel::save`] replays these into a *fresh read* of the
    /// sidecar, so concurrent jobs sharing one stats file accumulate
    /// each other's measurements instead of last-writer-wins erasing
    /// them.
    pending: Vec<Observation>,
}

impl CostModel {
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// Load from a `DJCS` sidecar; missing or corrupt files yield a cold
    /// model (the sidecar is advisory state).
    pub fn load(path: &Path) -> CostModel {
        CostModel {
            stats: StatsSidecar::read(path).unwrap_or_default(),
            pending: Vec::new(),
        }
    }

    /// Persist as a checksummed `DJCS` sidecar (atomic temp + rename),
    /// merging rather than overwriting: the sidecar is re-read first and
    /// only this model's own observations since load are folded on top.
    /// Two service-runtime jobs (or two processes) saving to the same
    /// stats file therefore both contribute — whichever rename lands last
    /// carries the other's aggregates, not a stale snapshot of them.
    pub fn save(&mut self, path: &Path) -> Result<()> {
        let mut merged = StatsSidecar::read(path).unwrap_or_default();
        for obs in &self.pending {
            fold_observation(
                &mut merged,
                &obs.name,
                obs.samples_in,
                obs.samples_out,
                obs.duration,
            );
        }
        // Tunables are point measurements, not accumulators: this
        // process's latest values win; keys it never set pass through.
        for (name, value) in &self.stats.tunables {
            merged.tunables.insert(name.clone(), *value);
        }
        merged.write(path)?;
        self.stats = merged;
        self.pending.clear();
        Ok(())
    }

    /// Whether any step has trusted measurements — a warm model is what
    /// unlocks plan-time reordering and knob auto-tuning.
    pub fn is_warm(&self) -> bool {
        self.stats
            .ops
            .values()
            .any(|a| a.samples >= MIN_MEASURED_SAMPLES)
    }

    /// Fold one run's per-op reports into the aggregates. Uses the step's
    /// critical-path duration over its total samples, so absolute
    /// ns/sample is shard-max-biased — but the bias is uniform across the
    /// steps of a stage (they share the shard cut), and only *relative*
    /// rank drives planning.
    pub fn observe_report(&mut self, report: &RunReport) {
        for op in &report.ops {
            self.observe_step(&op.name, op.samples_in, op.samples_out, op.duration);
        }
    }

    /// Fold a single step observation into its EWMA aggregate (and keep
    /// the raw observation for merge-on-save).
    pub fn observe_step(
        &mut self,
        name: &str,
        samples_in: usize,
        samples_out: usize,
        duration: Duration,
    ) {
        if samples_in == 0 {
            return; // an earlier step drained the funnel; nothing measured
        }
        self.pending.push(Observation {
            name: name.to_string(),
            samples_in,
            samples_out,
            duration,
        });
        fold_observation(&mut self.stats, name, samples_in, samples_out, duration);
    }

    /// Trusted measurement for a step, if any.
    pub fn measured(&self, name: &str) -> Option<&OpAggregate> {
        self.stats
            .ops
            .get(name)
            .filter(|a| a.samples >= MIN_MEASURED_SAMPLES)
    }

    /// Ranking score for a step: measured when trusted, otherwise the
    /// static-tier fallback. Returns `(score, measured)`.
    pub fn score(&self, name: &str, static_cost: OpCost) -> (f64, bool) {
        match self.measured(name) {
            Some(a) => (rank_score(a.ns_per_sample, a.keep_ratio), true),
            None => (fallback_score(static_cost), false),
        }
    }

    pub fn tunable(&self, name: &str) -> Option<f64> {
        self.stats.tunables.get(name).copied()
    }

    pub fn set_tunable(&mut self, name: &str, value: f64) {
        self.stats.tunables.insert(name.to_string(), value);
    }

    /// Number of steps with any observation (tests/bench introspection).
    pub fn len(&self) -> usize {
        self.stats.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stats.ops.is_empty()
    }
}

/// The EWMA fold shared by live observation and merge-on-save replay.
fn fold_observation(
    stats: &mut StatsSidecar,
    name: &str,
    samples_in: usize,
    samples_out: usize,
    duration: Duration,
) {
    let ns = duration.as_nanos() as f64 / samples_in as f64;
    let keep = (samples_out as f64 / samples_in as f64).clamp(0.0, 1.0);
    match stats.ops.get_mut(name) {
        None => {
            stats.ops.insert(
                name.to_string(),
                OpAggregate {
                    ns_per_sample: ns,
                    keep_ratio: keep,
                    samples: samples_in as u64,
                    runs: 1,
                },
            );
        }
        Some(agg) => {
            agg.ns_per_sample = EWMA_ALPHA * ns + (1.0 - EWMA_ALPHA) * agg.ns_per_sample;
            agg.keep_ratio = EWMA_ALPHA * keep + (1.0 - EWMA_ALPHA) * agg.keep_ratio;
            agg.samples = agg.samples.saturating_add(samples_in as u64);
            agg.runs = agg.runs.saturating_add(1);
        }
    }
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

    #[test]
    fn fallback_scores_follow_static_tiers() {
        assert!(fallback_score(OpCost::Cheap) < fallback_score(OpCost::Moderate));
        assert!(fallback_score(OpCost::Moderate) < fallback_score(OpCost::Expensive));
    }

    #[test]
    fn observe_seeds_then_smooths() {
        let mut m = CostModel::new();
        assert!(!m.is_warm());
        m.observe_step("f", 1000, 400, Duration::from_micros(100));
        let first = m.measured("f").unwrap();
        assert!((first.ns_per_sample - 100.0).abs() < 1e-9);
        assert!((first.keep_ratio - 0.4).abs() < 1e-9);
        assert!(m.is_warm());
        // A second, 3× slower run moves the EWMA by α = 0.3.
        m.observe_step("f", 1000, 400, Duration::from_micros(300));
        let second = m.measured("f").unwrap();
        let expected = 0.3 * 300.0 + 0.7 * 100.0;
        assert!((second.ns_per_sample - expected).abs() < 1e-6);
        assert_eq!(second.runs, 2);
    }

    #[test]
    fn tiny_observations_are_untrusted() {
        let mut m = CostModel::new();
        m.observe_step("f", 3, 1, Duration::from_micros(5));
        assert!(m.measured("f").is_none(), "3 samples is noise, not signal");
        let (score, measured) = m.score("f", OpCost::Cheap);
        assert!(!measured);
        assert!((score - fallback_score(OpCost::Cheap)).abs() < 1e-9);
        // Zero-sample observations are ignored entirely.
        m.observe_step("g", 0, 0, Duration::from_micros(5));
        assert!(!m.stats.ops.contains_key("g"));
    }

    #[test]
    fn concurrent_models_merge_instead_of_overwriting() {
        let dir = std::env::temp_dir().join(format!("dj-cost-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("planner_stats.djcs");
        // Two jobs load the (empty) sidecar, observe different steps, and
        // save in sequence — the old blind overwrite would make job B's
        // save erase job A's aggregates.
        let mut a = CostModel::load(&path);
        let mut b = CostModel::load(&path);
        a.observe_step("step_a", 1000, 500, Duration::from_micros(100));
        a.set_tunable("samples_per_sec", 1_000.0);
        b.observe_step("step_b", 2000, 1500, Duration::from_micros(400));
        a.save(&path).unwrap();
        b.save(&path).unwrap();
        let back = CostModel::load(&path);
        assert!(back.measured("step_a").is_some(), "job A's step survived");
        assert!(back.measured("step_b").is_some(), "job B's step survived");
        assert_eq!(back.tunable("samples_per_sec"), Some(1_000.0));
        // Both jobs observing the *same* step folds, not duplicates: B's
        // replay lands as a second EWMA run on A's aggregate.
        let mut c = CostModel::load(&path);
        c.observe_step("step_a", 1000, 500, Duration::from_micros(300));
        c.save(&path).unwrap();
        let folded = CostModel::load(&path);
        assert_eq!(folded.measured("step_a").unwrap().runs, 2);
        // Saving twice must not double-fold pending observations.
        let before = folded.measured("step_a").unwrap().runs;
        let mut d = CostModel::load(&path);
        d.observe_step("step_d", 100, 50, Duration::from_micros(10));
        d.save(&path).unwrap();
        d.save(&path).unwrap();
        let after = CostModel::load(&path);
        assert_eq!(after.measured("step_a").unwrap().runs, before);
        assert_eq!(after.measured("step_d").unwrap().runs, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join(format!("dj-cost-{}", std::process::id()));
        let path = dir.join("planner_stats.djcs");
        let mut m = CostModel::new();
        m.observe_step("a", 500, 100, Duration::from_micros(50));
        m.set_tunable("samples_per_sec", 12_345.0);
        m.save(&path).unwrap();
        let back = CostModel::load(&path);
        assert_eq!(back.measured("a"), m.measured("a"));
        assert_eq!(back.tunable("samples_per_sec"), Some(12_345.0));
        // Corrupt sidecar → cold model, never an error.
        std::fs::write(&path, b"junk").unwrap();
        assert!(CostModel::load(&path).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
