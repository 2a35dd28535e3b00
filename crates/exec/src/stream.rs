//! The one shard driver: a [`Feed`] yields loaded shards, [`drive`] pushes
//! each through a body on the shared [`WorkerPool`], and [`RunCtl`]
//! carries the run's residency gauge, job control block and error ledger
//! into every pass.
//!
//! Every pass of every execution shape — pipeline stages, barrier hash
//! passes, ingest and egress — runs through this one loop, so the live-set
//! contract lives in exactly one place: `workers` steppers, each claiming,
//! loading, processing and releasing one shard per step, so at most
//! `workers` shards are ever live, and `ctl.check` /
//! `faults::check("exec.shard.claim")` / acquire / release / `shard_done`
//! each appear once.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};

use dj_core::sync::lock;
use dj_core::{faults, DjError, ResidencyGauge, Result, Step, WorkerPool};
use dj_io::ErrorLedger;
use dj_store::BufferPool;

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
    /// The buffers every spool of this run reads, encodes and decompresses
    /// in, reused shard after shard; a runtime job's are released when a
    /// pass ends ([`drive`]).
    buffers: BufferPool,
}

impl RunCtl {
    pub(crate) fn new(job: Option<Arc<JobControl>>, ledger: Option<Arc<ErrorLedger>>) -> RunCtl {
        RunCtl {
            gauge: ResidencyGauge::default(),
            job,
            ledger,
            buffers: BufferPool::default(),
        }
    }

    pub(crate) fn buffers(&self) -> &BufferPool {
        &self.buffers
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
    #[allow(clippy::type_complexity)]
    pub next: Box<dyn Fn() -> Result<Option<(usize, T)>> + Sync + 'a>,
}

impl<'a, T> Feed<'a, T> {
    /// A feed over shards `0..n`, each loaded by `load`.
    pub(crate) fn indexed(n: usize, load: impl Fn(usize) -> Result<T> + Sync + 'a) -> Feed<'a, T> {
        let cursor = AtomicUsize::new(0);
        Feed {
            len: Some(n),
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
/// `workers` steppers (fewer when the feed is shorter) each claim, load,
/// process and release one shard per step, so at most `workers` shards are
/// live and `workers: 1` is a plain sequential loop on the calling thread.
/// There is no read-ahead: the OS already reads sequential input ahead,
/// and a spool slot is read back moments after it was written.
///
/// The first error (from the feed, the body, a fault or cancellation)
/// stops new claims and is the one returned; every acquired byte is
/// released before returning, on every path.
pub(crate) fn drive<T, R>(
    feed: &Feed<'_, T>,
    workers: usize,
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
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<DjError>> = Mutex::new(None);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    let fail = |e: DjError| {
        abort.store(true, SeqCst);
        lock(&first_err).get_or_insert(e);
        Step::Done
    };

    WorkerPool::global().run_section(workers, &|| {
        if abort.load(SeqCst) {
            return Step::Done;
        }
        if let Err(e) = ctl.check() {
            return fail(e);
        }
        let (idx, item) = match faults::check("exec.shard.claim").and_then(|()| (feed.next)()) {
            Ok(Some(loaded)) => loaded,
            Ok(None) => return Step::Done,
            Err(e) => return fail(e),
        };
        let (samples, bytes) = item.residency();
        ctl.acquire(samples, bytes);
        let r = work(idx, item);
        ctl.release(samples, bytes);
        ctl.shard_done();
        match r {
            Ok(v) => {
                lock(&results).push((idx, v));
                Step::Worked
            }
            Err(e) => fail(e),
        }
    });

    // A run alone in its process keeps its buffers for the next pass. A
    // runtime job shares the process with other jobs, and every job kept
    // the buffers of all its passes at once: `serve-4tenant`'s peak RSS
    // rose 10 %. So a job's pass lets go of them instead. A direct run that
    // released them too gave up 13 MB of `meta-file-col`'s peak RSS, because
    // the allocator serves what a later pass takes from a heap it grows.
    if ctl.job.is_some() {
        ctl.buffers.release();
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
        let mut feed = Feed::indexed(total, load);
        if !indexed {
            feed.len = None;
        }
        feed
    }

    fn ctl() -> (RunCtl, Arc<JobControl>) {
        let job = Arc::new(JobControl::default());
        (RunCtl::new(Some(Arc::clone(&job)), None), job)
    }

    /// Every (feed kind, workers) the driver is exercised under.
    fn shapes() -> impl Iterator<Item = (bool, usize)> {
        [true, false]
            .into_iter()
            .flat_map(|indexed| [1, 2, 3].into_iter().map(move |w| (indexed, w)))
    }

    /// No residency outlives the pass, and the live set stayed inside one
    /// shard per worker (each shard is one sample).
    fn assert_drained(ctl: &RunCtl, job: &JobControl, workers: usize, tag: &str) {
        assert_eq!(job.live_bytes(), 0, "{tag}: bytes still acquired");
        assert_eq!(job.live_samples(), 0, "{tag}: samples still acquired");
        assert!(
            ctl.peak_samples() <= workers,
            "{tag}: {} live shards > {workers} workers",
            ctl.peak_samples()
        );
    }

    #[test]
    fn a_runtime_jobs_pass_releases_the_runs_buffers_and_a_direct_runs_keeps_them() {
        use dj_store::Holds;
        let (job_ctl, _job) = ctl();
        for (ctl, kept) in [(RunCtl::new(None, None), true), (job_ctl, false)] {
            drop(ctl.buffers().take(Holds::Raw, 4096));
            drive(&test_feed(3, true, None), 2, &ctl, |_, i| Ok(i)).unwrap();
            let after = ctl.buffers().take_largest(Holds::Raw).capacity();
            assert_eq!(after >= 4096, kept, "capacity {after} after the pass");
        }
    }

    #[test]
    fn results_come_back_in_shard_order_within_the_live_bound() {
        for (indexed, workers) in shapes() {
            let tag = format!("indexed={indexed} w={workers}");
            let (ctl, job) = ctl();
            let feed = test_feed(23, indexed, None);
            let out = drive(&feed, workers, &ctl, |i, item| Ok(i * 100 + item)).unwrap();
            let expected: Vec<usize> = (0..23).map(|i| i * 101).collect();
            assert_eq!(out, expected, "{tag}");
            assert_eq!(job.shards_done(), 23, "{tag}");
            assert_drained(&ctl, &job, workers, &tag);
        }
    }

    #[test]
    fn an_empty_feed_is_an_empty_result() {
        for (indexed, workers) in shapes() {
            let (ctl, job) = ctl();
            let feed = test_feed(0, indexed, None);
            let out = drive(&feed, workers, &ctl, |_, item| Ok(item)).unwrap();
            assert!(out.is_empty());
            assert_drained(&ctl, &job, workers, "empty");
        }
    }

    #[test]
    fn a_failing_feed_releases_everything_and_surfaces_its_error() {
        for (indexed, workers) in shapes() {
            let tag = format!("indexed={indexed} w={workers}");
            let (ctl, job) = ctl();
            let feed = test_feed(40, indexed, Some(7));
            let err = drive(&feed, workers, &ctl, |_, item| Ok(item)).unwrap_err();
            assert_eq!(err.to_string(), "storage error: feed 7", "{tag}");
            assert!(job.shards_done() < 40, "{tag}: pass ran to completion");
            assert_drained(&ctl, &job, workers, &tag);
        }
    }

    #[test]
    fn a_failing_body_releases_everything_and_surfaces_the_first_error() {
        for (indexed, workers) in shapes() {
            let tag = format!("indexed={indexed} w={workers}");
            let (ctl, job) = ctl();
            // The body fails from shard 5 on and the feed would fail at 30:
            // whichever body error lands first is the one reported, never
            // a later one and never the feed's.
            let feed = test_feed(40, indexed, Some(30));
            let first = Mutex::new(None);
            let err = drive(&feed, workers, &ctl, |i, _| -> Result<()> {
                if i < 5 {
                    return Ok(());
                }
                lock(&first).get_or_insert(i);
                Err(DjError::Storage(format!("body {i}")))
            })
            .unwrap_err();
            let first = lock(&first).expect("a body failed");
            if workers == 1 {
                // One stepper: bodies run in shard order, so "first" is exact.
                assert_eq!(first, 5, "{tag}");
                assert_eq!(err.to_string(), "storage error: body 5", "{tag}");
            } else {
                let msg = err.to_string();
                assert!(msg.starts_with("storage error: body "), "{tag}: {msg}");
            }
            assert_drained(&ctl, &job, workers, &tag);
        }
    }

    #[test]
    fn a_cancel_releases_everything_and_surfaces_cancelled() {
        for (indexed, workers) in shapes() {
            let tag = format!("indexed={indexed} w={workers}");
            let (ctl, job) = ctl();
            let feed = test_feed(40, indexed, None);
            let err = drive(&feed, workers, &ctl, |i, item| {
                if i == 3 {
                    job.cancel();
                }
                Ok(item)
            })
            .unwrap_err();
            assert!(matches!(err, DjError::Cancelled), "{tag}: {err}");
            assert!(job.shards_done() < 40, "{tag}: pass ran to completion");
            assert_drained(&ctl, &job, workers, &tag);
        }
    }

    /// The gauge counts what [`RunCtl`] cannot see: a shard is in flight
    /// from the moment its load starts until its body returns, so a
    /// loaded-but-unprocessed shard counts too. At no point are there more
    /// in flight than workers, whether the pass succeeds, fails or is
    /// cancelled.
    #[test]
    fn loads_plus_bodies_in_flight_never_exceed_the_workers() {
        #[derive(Clone, Copy, Debug)]
        enum End {
            Success,
            Failure,
            Cancel,
        }
        for (indexed, workers) in shapes() {
            for end in [End::Success, End::Failure, End::Cancel] {
                let tag = format!("indexed={indexed} w={workers} {end:?}");
                let (ctl, job) = ctl();
                let live = AtomicUsize::new(0);
                let peak = AtomicUsize::new(0);
                let pause = || std::thread::sleep(std::time::Duration::from_micros(200));
                let mut feed = Feed::indexed(30, |i| {
                    peak.fetch_max(live.fetch_add(1, SeqCst) + 1, SeqCst);
                    pause();
                    Ok(i)
                });
                if !indexed {
                    feed.len = None;
                }
                let out = drive(&feed, workers, &ctl, |i, item| {
                    pause();
                    live.fetch_sub(1, SeqCst);
                    match end {
                        End::Failure if i == 12 => Err(DjError::Storage("body".into())),
                        End::Cancel if i == 12 => {
                            job.cancel();
                            Ok(item)
                        }
                        _ => Ok(item),
                    }
                });
                match end {
                    End::Success => assert_eq!(out.unwrap().len(), 30, "{tag}"),
                    End::Failure | End::Cancel => assert!(out.is_err(), "{tag}"),
                }
                assert_eq!(live.load(SeqCst), 0, "{tag}: a load never reached its body");
                let peak = peak.load(SeqCst);
                assert!(peak <= workers, "{tag}: {peak} shards in flight");
                assert_drained(&ctl, &job, workers, &tag);
            }
        }
    }
}
