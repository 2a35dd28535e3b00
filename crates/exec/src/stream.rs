//! The one shard driver: a [`Feed`] yields loaded shards, [`drive`] pushes
//! each through a body on the shared [`WorkerPool`] with bounded
//! read-ahead, and [`RunCtl`] carries the run's residency gauge, job
//! control block and error ledger into every pass.
//!
//! Every pass of every execution shape — pipeline stages, barrier hash
//! passes, ingest and egress — runs through this one loop, so the
//! prefetch contract lives in exactly one place: the live-set
//! reservation is taken *before* a load (the resident bound can never
//! overshoot `workers × depth` shards however many steppers race), and
//! `ctl.check` / `faults::check("exec.shard.claim")` / acquire / release /
//! `shard_done` each appear once.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};

use dj_core::sync::lock;
use dj_core::{faults, DjError, ResidencyGauge, Result, Step, WorkerPool};
use dj_io::ErrorLedger;

use crate::runtime::JobControl;

/// Per-run control block: the residency gauge plus the owning service
/// job (when the run was submitted through the runtime). Threaded through
/// every pass so that (a) resident-sample accounting also mirrors into the
/// job's admission-control counters and the runtime's aggregate gauge,
/// (b) cancellation is observed at every shard boundary, and (c) shard
/// completions feed the job's progress API. Direct runs construct one
/// with no job attached.
pub(crate) struct RunCtl {
    gauge: ResidencyGauge,
    job: Option<Arc<JobControl>>,
    /// Record-level error policy for this run; shard workers route
    /// per-sample OP failures through it.
    ledger: Option<Arc<ErrorLedger>>,
}

impl RunCtl {
    pub(crate) fn new(job: Option<Arc<JobControl>>, ledger: Option<Arc<ErrorLedger>>) -> RunCtl {
        RunCtl {
            gauge: ResidencyGauge::default(),
            job,
            ledger,
        }
    }

    pub(crate) fn ledger(&self) -> Option<&ErrorLedger> {
        self.ledger.as_deref()
    }

    /// Fail with [`DjError::Cancelled`] if the owning job was cancelled.
    /// Checked at every shard claim, so a cancelled job stops within one
    /// shard of work per stepper.
    pub(crate) fn check(&self) -> Result<()> {
        match &self.job {
            Some(job) if job.is_cancelled() => Err(DjError::Cancelled),
            _ => Ok(()),
        }
    }

    fn acquire(&self, samples: usize, bytes: usize) {
        self.gauge.acquire(samples, bytes);
        if let Some(job) = &self.job {
            job.acquire(samples, bytes);
        }
    }

    fn release(&self, samples: usize, bytes: usize) {
        self.gauge.release(samples, bytes);
        if let Some(job) = &self.job {
            job.release(samples, bytes);
        }
    }

    /// Record one finished shard toward the job's progress counters.
    fn shard_done(&self) {
        if let Some(job) = &self.job {
            job.note_shard_done();
        }
    }

    pub(crate) fn peak_samples(&self) -> usize {
        self.gauge.peak_samples()
    }

    pub(crate) fn peak_bytes(&self) -> usize {
        self.gauge.peak_bytes()
    }
}

/// What a loaded shard charges the residency gauge while it is live.
pub(crate) trait Resident {
    /// `(samples, bytes)`.
    fn residency(&self) -> (usize, usize);
}

/// Where a pass gets its shards: `next` loads the next shard and returns it
/// with its index, or `None` once dry (it may be called again after that).
/// Shards come out in index order. An indexed source (memory slots, a
/// spool) is just a feed that runs dry at `n`; an open-ended one (a corpus
/// reader) runs dry when its stream does.
pub(crate) struct Feed<'a, T> {
    /// Shard count when known up front.
    pub len: Option<usize>,
    /// Whether a load does IO worth overlapping with compute (read-ahead
    /// into the prefetch queue); in-memory feeds say no.
    pub overlaps_io: bool,
    #[allow(clippy::type_complexity)]
    pub next: Box<dyn Fn() -> Result<Option<(usize, T)>> + Sync + 'a>,
}

impl<'a, T> Feed<'a, T> {
    /// A feed over shards `0..n`, each loaded by `load`.
    pub(crate) fn indexed(
        n: usize,
        overlaps_io: bool,
        load: impl Fn(usize) -> Result<T> + Sync + 'a,
    ) -> Feed<'a, T> {
        let cursor = AtomicUsize::new(0);
        Feed {
            len: Some(n),
            overlaps_io,
            next: Box::new(move || {
                let i = cursor.fetch_add(1, SeqCst);
                if i >= n {
                    return Ok(None);
                }
                load(i).map(|item| Some((i, item)))
            }),
        }
    }
}

/// Drive every shard of `feed` through `work`, returning the per-shard
/// results in shard order.
///
/// `depth` is the per-worker live-shard budget. When the feed does IO and
/// `depth ≥ 2`, steppers interleave two kinds of step — load the next
/// shard into a prefetch queue (if the reservation allows) or pop a queued
/// shard and process it — so loads overlap compute while at most
/// `workers × depth` shards are acquired-but-not-released. Otherwise there
/// is no queue: each step loads and processes one shard, one per stepper.
///
/// The first error (from the feed, the body, a fault or cancellation)
/// stops new claims and is the one returned; every acquired byte is
/// released before returning, on every path.
pub(crate) fn drive<T, R>(
    feed: &Feed<'_, T>,
    workers: usize,
    depth: usize,
    ctl: &RunCtl,
    work: impl Fn(usize, T) -> Result<R> + Sync,
) -> Result<Vec<R>>
where
    T: Resident + Send,
    R: Send,
{
    let workers = workers
        .max(1)
        .min(feed.len.map_or(usize::MAX, |n| n.max(1)));
    let use_queue = feed.overlaps_io && depth >= 2;
    // The extra stepper is the loader's hands: one stepper can always be
    // inside a load while `workers` others process.
    let (width, cap_live) = if use_queue {
        (workers + 1, workers * depth)
    } else {
        (workers, workers)
    };
    // Queued shards with the `(samples, bytes)` they were acquired for.
    type Live<T> = (usize, T, (usize, usize));
    let queue: Mutex<VecDeque<Live<T>>> = Mutex::new(VecDeque::new());
    // Live-set reservations: shards loading, queued, or being processed.
    let reserved = AtomicUsize::new(0);
    let dry = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<DjError>> = Mutex::new(None);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    let fail = |e: DjError| {
        abort.store(true, SeqCst);
        lock(&first_err).get_or_insert(e);
    };
    let finish = |(idx, item, (samples, bytes)): Live<T>| {
        let r = work(idx, item);
        ctl.release(samples, bytes);
        reserved.fetch_sub(1, SeqCst);
        ctl.shard_done();
        match r {
            Ok(v) => lock(&results).push((idx, v)),
            Err(e) => fail(e),
        }
    };

    WorkerPool::global().run_section(width, &|| {
        if abort.load(SeqCst) {
            return Step::Done;
        }
        if let Err(e) = ctl.check() {
            fail(e);
            return Step::Done;
        }
        // Claim a load if the feed may have more and the live set allows.
        let claimed = !dry.load(SeqCst)
            && reserved
                .fetch_update(SeqCst, SeqCst, |r| (r < cap_live).then_some(r + 1))
                .is_ok();
        if claimed {
            match faults::check("exec.shard.claim").and_then(|()| (feed.next)()) {
                Ok(Some((idx, item))) => {
                    let charge = item.residency();
                    ctl.acquire(charge.0, charge.1);
                    if use_queue {
                        lock(&queue).push_back((idx, item, charge));
                    } else {
                        finish((idx, item, charge));
                    }
                    return Step::Worked;
                }
                Ok(None) => {
                    dry.store(true, SeqCst);
                    reserved.fetch_sub(1, SeqCst);
                }
                Err(e) => {
                    reserved.fetch_sub(1, SeqCst);
                    fail(e);
                    return Step::Done;
                }
            }
        }
        // Nothing loadable — process a prefetched shard instead.
        let popped = lock(&queue).pop_front();
        if let Some(p) = popped {
            finish(p);
            return Step::Worked;
        }
        // A reservation outlives its load, its queue wait and its body,
        // so "dry and nothing reserved" means every shard is done.
        if dry.load(SeqCst) && reserved.load(SeqCst) == 0 {
            Step::Done
        } else {
            Step::Idle
        }
    });

    // A cancelled or failed pass may leave prefetched shards behind; their
    // residency is released before the caller drops its spool.
    for (_, _, (samples, bytes)) in queue.into_inner().unwrap_or_else(PoisonError::into_inner) {
        ctl.release(samples, bytes);
    }
    if let Some(e) = first_err
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    let mut pairs = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    pairs.sort_by_key(|(i, _)| *i);
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shards are one sample, ten bytes each.
    impl Resident for usize {
        fn residency(&self) -> (usize, usize) {
            (1, 10)
        }
    }

    /// `total` shards, indexed (length known) or open-ended, optionally
    /// failing the load of one index.
    fn test_feed(total: usize, indexed: bool, fail_at: Option<usize>) -> Feed<'static, usize> {
        let load = move |i: usize| match fail_at {
            Some(bad) if bad == i => Err(DjError::Storage(format!("feed {i}"))),
            _ => Ok(i),
        };
        let mut feed = Feed::indexed(total, true, load);
        if !indexed {
            feed.len = None;
        }
        feed
    }

    fn ctl() -> (RunCtl, Arc<JobControl>) {
        let job = Arc::new(JobControl::default());
        (RunCtl::new(Some(Arc::clone(&job)), None), job)
    }

    /// Every (feed kind, workers, depth) the driver is exercised under.
    fn shapes() -> impl Iterator<Item = (bool, usize, usize)> {
        [true, false].into_iter().flat_map(|indexed| {
            [(1, 1), (1, 2), (3, 2), (2, 3)]
                .into_iter()
                .map(move |(w, d)| (indexed, w, d))
        })
    }

    /// No residency outlives the pass, and the live set stayed inside the
    /// reserve-before-load bound (each shard is one sample).
    fn assert_drained(ctl: &RunCtl, job: &JobControl, workers: usize, depth: usize, tag: &str) {
        assert_eq!(job.live_bytes(), 0, "{tag}: bytes still acquired");
        assert_eq!(job.live_samples(), 0, "{tag}: samples still acquired");
        assert!(
            ctl.peak_samples() <= workers * depth,
            "{tag}: {} live shards > {workers} x {depth}",
            ctl.peak_samples()
        );
    }

    #[test]
    fn results_come_back_in_shard_order_within_the_live_bound() {
        for (indexed, workers, depth) in shapes() {
            let tag = format!("indexed={indexed} w={workers} d={depth}");
            let (ctl, job) = ctl();
            let feed = test_feed(23, indexed, None);
            let out = drive(&feed, workers, depth, &ctl, |i, item| Ok(i * 100 + item)).unwrap();
            let expected: Vec<usize> = (0..23).map(|i| i * 101).collect();
            assert_eq!(out, expected, "{tag}");
            assert_eq!(job.shards_done(), 23, "{tag}");
            assert_drained(&ctl, &job, workers, depth, &tag);
        }
    }

    #[test]
    fn an_empty_feed_is_an_empty_result() {
        for (indexed, workers, depth) in shapes() {
            let (ctl, job) = ctl();
            let feed = test_feed(0, indexed, None);
            let out = drive(&feed, workers, depth, &ctl, |_, item| Ok(item)).unwrap();
            assert!(out.is_empty());
            assert_drained(&ctl, &job, workers, depth, "empty");
        }
    }

    #[test]
    fn a_failing_feed_releases_everything_and_surfaces_its_error() {
        for (indexed, workers, depth) in shapes() {
            let tag = format!("indexed={indexed} w={workers} d={depth}");
            let (ctl, job) = ctl();
            let feed = test_feed(40, indexed, Some(7));
            let err = drive(&feed, workers, depth, &ctl, |_, item| Ok(item)).unwrap_err();
            assert_eq!(err.to_string(), "storage error: feed 7", "{tag}");
            assert!(job.shards_done() < 40, "{tag}: pass ran to completion");
            assert_drained(&ctl, &job, workers, depth, &tag);
        }
    }

    #[test]
    fn a_failing_body_releases_everything_and_surfaces_the_first_error() {
        for (indexed, workers, depth) in shapes() {
            let tag = format!("indexed={indexed} w={workers} d={depth}");
            let (ctl, job) = ctl();
            // The body fails from shard 5 on and the feed would fail at 30:
            // whichever body error lands first is the one reported, never
            // a later one and never the feed's.
            let feed = test_feed(40, indexed, Some(30));
            let first = Mutex::new(None);
            let err = drive(&feed, workers, depth, &ctl, |i, _| -> Result<()> {
                if i < 5 {
                    return Ok(());
                }
                lock(&first).get_or_insert(i);
                Err(DjError::Storage(format!("body {i}")))
            })
            .unwrap_err();
            let first = lock(&first).expect("a body failed");
            if workers * depth == 1 {
                // One stepper: bodies run in shard order, so "first" is exact.
                assert_eq!(first, 5, "{tag}");
                assert_eq!(err.to_string(), "storage error: body 5", "{tag}");
            } else {
                let msg = err.to_string();
                assert!(msg.starts_with("storage error: body "), "{tag}: {msg}");
            }
            assert_drained(&ctl, &job, workers, depth, &tag);
        }
    }

    #[test]
    fn a_cancel_releases_everything_and_surfaces_cancelled() {
        for (indexed, workers, depth) in shapes() {
            let tag = format!("indexed={indexed} w={workers} d={depth}");
            let (ctl, job) = ctl();
            let feed = test_feed(40, indexed, None);
            let err = drive(&feed, workers, depth, &ctl, |i, item| {
                if i == 3 {
                    job.cancel();
                }
                Ok(item)
            })
            .unwrap_err();
            assert!(matches!(err, DjError::Cancelled), "{tag}: {err}");
            assert!(job.shards_done() < 40, "{tag}: pass ran to completion");
            assert_drained(&ctl, &job, workers, depth, &tag);
        }
    }

    #[test]
    fn an_in_memory_feed_never_reads_ahead() {
        let (ctl, job) = ctl();
        let mut feed = test_feed(16, true, None);
        feed.overlaps_io = false;
        drive(&feed, 2, 4, &ctl, |_, item| Ok(item)).unwrap();
        assert_drained(&ctl, &job, 2, 1, "resident");
    }
}
