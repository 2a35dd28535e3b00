//! Per-shard statistics accumulation and in-memory shard slots for the
//! sharded pipeline executor.
//!
//! Each worker drives a whole plan stage over one shard and records, per
//! step, how many samples it saw, kept, removed and edited, plus the CPU
//! time it spent in that step. After the stage joins, the executor merges
//! the per-shard accumulators into one dataset-level view per step:
//! counts add up, durations take the maximum across shards (the step's
//! contribution to the stage's critical path).
//!
//! [`MemShardStore`] holds the shards of a resident stage, one slot each.
//! [`ResidencyGauge`] counts the samples currently resident in the
//! streaming machinery so tests can assert the out-of-core memory ceiling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::dataset::Dataset;
use crate::error::{DjError, Result};

/// Counters one shard accumulates for one plan step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Samples that entered this step on this shard.
    pub samples_in: usize,
    /// Samples that survived this step on this shard.
    pub samples_out: usize,
    /// Samples removed by this step on this shard (filters/dedups).
    pub removed: usize,
    /// Samples whose text this step rewrote (mappers).
    pub changed: usize,
    /// CPU time this shard spent inside this step.
    pub duration: Duration,
    /// Region bytes this step's stage decoded to run
    /// this shard. Only spilled stages attribute bytes; resident stages
    /// leave it zero. Every step of a fused stage reports the same shard
    /// decode — the stage decodes once for all of them.
    pub bytes_decoded: u64,
}

impl ShardStats {
    /// Merge another shard's counters for the same step into this one.
    ///
    /// Counts are additive; the duration takes the per-shard maximum, which
    /// approximates the step's wall-clock contribution when shards run in
    /// parallel.
    pub fn merge(&mut self, other: &ShardStats) {
        self.samples_in += other.samples_in;
        self.samples_out += other.samples_out;
        self.removed += other.removed;
        self.changed += other.changed;
        self.duration = self.duration.max(other.duration);
        self.bytes_decoded += other.bytes_decoded;
    }

    /// Fold a sequence of per-shard accumulators into one.
    pub fn merged<'a>(all: impl IntoIterator<Item = &'a ShardStats>) -> ShardStats {
        let mut out = ShardStats::default();
        for s in all {
            out.merge(s);
        }
        out
    }
}

/// In-memory shard store: the default (non-spilling) backing of the stage
/// driver. One mutex-guarded slot per shard; a load takes the shard out, so
/// a pass loads every index at most once. `idx` preserves shard order:
/// draining the slots in index order reproduces the order-preserving
/// concatenation byte-identical output relies on.
#[derive(Debug, Default)]
pub struct MemShardStore {
    slots: Vec<Mutex<Option<Dataset>>>,
}

impl MemShardStore {
    /// A store pre-filled with input shards.
    pub fn from_shards(shards: Vec<Dataset>) -> MemShardStore {
        MemShardStore {
            slots: shards.into_iter().map(|s| Mutex::new(Some(s))).collect(),
        }
    }

    /// An empty store with `n` output slots.
    pub fn with_capacity(n: usize) -> MemShardStore {
        MemShardStore {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// How many slots this store has.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Take shard `idx` out of its slot.
    pub fn load_shard(&self, idx: usize) -> Result<Dataset> {
        crate::sync::lock(&self.slots[idx])
            .take()
            .ok_or_else(|| DjError::Storage(format!("shard {idx} already loaded")))
    }

    /// Put `shard` into slot `idx`.
    pub fn store_shard(&self, idx: usize, shard: Dataset) -> Result<()> {
        *crate::sync::lock(&self.slots[idx]) = Some(shard);
        Ok(())
    }

    /// Drain the stored shards in index order. Errors if a slot was never
    /// filled (a worker died before storing its shard).
    pub fn into_shards(self) -> Result<Vec<Dataset>> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .ok_or_else(|| DjError::Storage(format!("shard {i} was never stored")))
            })
            .collect()
    }
}

/// Live-sample accounting for the streaming stage driver.
///
/// A worker acquires when it loads a shard into memory and releases once
/// the shard has been handed to the sink. The recorded peaks are the
/// engine's constant-memory evidence: with one live shard per worker the
/// peak must stay ≤ `num_workers × shard_size` samples.
#[derive(Debug, Default)]
pub struct ResidencyGauge {
    live_samples: AtomicUsize,
    peak_samples: AtomicUsize,
    live_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
}

impl ResidencyGauge {
    pub fn acquire(&self, samples: usize, bytes: usize) {
        let s = self.live_samples.fetch_add(samples, Ordering::Relaxed) + samples;
        self.peak_samples.fetch_max(s, Ordering::Relaxed);
        let b = self.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(b, Ordering::Relaxed);
    }

    pub fn release(&self, samples: usize, bytes: usize) {
        self.live_samples.fetch_sub(samples, Ordering::Relaxed);
        self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn live_samples(&self) -> usize {
        self.live_samples.load(Ordering::Relaxed)
    }

    pub fn live_bytes(&self) -> usize {
        self.live_bytes.load(Ordering::Relaxed)
    }

    pub fn peak_samples(&self) -> usize {
        self.peak_samples.load(Ordering::Relaxed)
    }

    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts_and_maxes_duration() {
        let a = ShardStats {
            samples_in: 10,
            samples_out: 8,
            removed: 2,
            changed: 3,
            duration: Duration::from_millis(5),
            bytes_decoded: 100,
        };
        let b = ShardStats {
            samples_in: 7,
            samples_out: 7,
            removed: 0,
            changed: 1,
            duration: Duration::from_millis(9),
            bytes_decoded: 40,
        };
        let m = ShardStats::merged([&a, &b]);
        assert_eq!(m.samples_in, 17);
        assert_eq!(m.samples_out, 15);
        assert_eq!(m.removed, 2);
        assert_eq!(m.changed, 4);
        assert_eq!(m.duration, Duration::from_millis(9));
        assert_eq!(m.bytes_decoded, 140);
    }

    #[test]
    fn merged_of_empty_is_default() {
        assert_eq!(ShardStats::merged([]), ShardStats::default());
    }

    #[test]
    fn mem_store_roundtrips_in_order() {
        let shards = vec![
            Dataset::from_texts(["a", "b"]),
            Dataset::from_texts(["c"]),
            Dataset::new(),
        ];
        let store = MemShardStore::from_shards(shards.clone());
        assert_eq!(store.shard_count(), 3);
        let out = MemShardStore::with_capacity(3);
        for i in [2usize, 0, 1] {
            // Out-of-order store, in-order drain.
            out.store_shard(i, store.load_shard(i).unwrap()).unwrap();
        }
        assert_eq!(out.into_shards().unwrap(), shards);
    }

    #[test]
    fn mem_store_detects_double_load_and_missing_slot() {
        let store = MemShardStore::from_shards(vec![Dataset::new()]);
        store.load_shard(0).unwrap();
        assert!(store.load_shard(0).is_err());
        let empty = MemShardStore::with_capacity(2);
        assert!(empty.into_shards().is_err());
    }

    #[test]
    fn residency_gauge_tracks_peak() {
        let g = ResidencyGauge::default();
        g.acquire(10, 100);
        g.acquire(5, 50);
        g.release(10, 100);
        g.acquire(2, 20);
        assert_eq!(g.live_samples(), 7);
        assert_eq!(g.peak_samples(), 15);
        assert_eq!(g.peak_bytes(), 150);
    }
}
