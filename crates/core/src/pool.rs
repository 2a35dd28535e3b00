//! Persistent worker pool: long-lived threads shared by every parallel
//! section in the process.
//!
//! The execution engine used to open a fresh [`std::thread::scope`] for
//! every parallel pass — stage streaming, hash passes, mask apply, banded
//! candidate generation — which meant ~17 spawn sites each paying thread
//! creation per pass. Under the service runtime several jobs share one
//! process, so those passes now register a **section** with the shared
//! [`WorkerPool`] instead: pool threads round-robin over all live sections,
//! stepping each one shard-sized unit of work at a time. That round-robin
//! is the fair shard-level (morsel) scheduler across concurrent jobs — no
//! job's section can starve another's, because a pool thread never takes
//! two steps from the same section while another eligible section waits.
//!
//! A section is a closure returning [`Step`]:
//!
//! * [`Step::Worked`] — one unit of work was done; step again.
//! * [`Step::Done`] — the section is drained; nobody should step it again.
//!
//! The **calling thread participates** in its own section, so progress is
//! guaranteed even when every pool thread is busy in other jobs' sections —
//! a saturated pool degrades to the old single-caller behaviour instead of
//! deadlocking, and nested sections (a barrier inside a job inside the
//! runtime) need no special casing. `width` caps the number of concurrent
//! steppers (caller included), which is how streaming sections keep their
//! resident-shard ceiling identical to the old dedicated-thread layout.
//!
//! Worker panics inside a step are caught, the section is drained, and the
//! panic is re-raised on the calling thread — the same observable behaviour
//! as a panicking scoped thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use crate::error::panic_message;
use crate::sync;

/// What a section step accomplished; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One unit of work was completed — step again immediately.
    Worked,
    /// The section is exhausted — deregister it.
    Done,
}

type StepFn<'a> = dyn Fn() -> Step + Sync + 'a;

/// One registered parallel section.
struct Section {
    /// Lifetime-erased pointer to the caller's step closure. Only valid
    /// while the section is registered: [`SectionGuard`]'s drop removes the
    /// section from the registry and then waits for `active == 0`, so no
    /// pool thread can observe the pointer after `run_section` returns —
    /// even when the caller unwinds.
    step: *const StepFn<'static>,
    /// Max concurrent steppers (calling thread included).
    width: usize,
    /// Steppers currently inside the closure.
    active: AtomicUsize,
    /// No new steps may begin (drained, aborted, or caller unwinding).
    drained: AtomicBool,
    /// A pool-thread step panicked; re-raise on the caller.
    panicked: AtomicBool,
    /// The first panicking step's message, re-raised verbatim on the
    /// caller so the job error says *what* panicked.
    panic_msg: Mutex<Option<String>>,
}

// SAFETY: the raw closure pointer is only dereferenced between registration
// and deregistration, a window during which the caller's borrow is alive
// (see `Section::step`); the closure itself is `Sync`.
unsafe impl Send for Section {}
unsafe impl Sync for Section {}

impl Section {
    /// Try to reserve a stepper slot; never exceeds `width`.
    fn try_enter(&self) -> bool {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.width {
                return false;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    fn exit(&self) {
        self.active.fetch_sub(1, Ordering::Release);
    }
}

struct Registry {
    sections: Vec<Arc<Section>>,
    /// Round-robin cursor over `sections` — the fairness pivot.
    cursor: usize,
    shutdown: bool,
}

/// A fixed set of long-lived worker threads serving [`Step`] sections.
///
/// One process-wide pool ([`WorkerPool::global`]) serves every job; tests
/// may build private pools. Dropping a non-global pool joins its threads.
pub struct WorkerPool {
    registry: Mutex<Registry>,
    /// Pool threads park here when no section is eligible.
    work_cv: Condvar,
    /// Callers park here while waiting for in-flight steps to retire.
    done_cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// OS threads ever spawned by any [`WorkerPool`] in this process. The
/// service-mode acceptance evidence: repeated runs through a warm pool
/// leave this counter flat where the scoped engine re-spawned per pass.
static SPAWNED_TOTAL: AtomicUsize = AtomicUsize::new(0);

#[cfg(test)]
thread_local! {
    /// Pool threads spawned from this thread: what a unit test can count
    /// without seeing the private pools its siblings build meanwhile.
    static SPAWNED_HERE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How long an idle pool thread sleeps between eligibility polls. Section
/// registration notifies `work_cv`, so this is only a safety net against
/// missed wakeups; steps are shard-sized, so 1 ms is noise.
const IDLE_POLL: Duration = Duration::from_millis(1);

impl WorkerPool {
    /// A pool with `threads` long-lived worker threads. Zero is legal: all
    /// sections then run entirely on their calling threads.
    pub fn new(threads: usize) -> Arc<WorkerPool> {
        let pool = Arc::new(WorkerPool {
            registry: Mutex::new(Registry {
                sections: Vec::new(),
                cursor: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = sync::lock(&pool.handles);
        for i in 0..threads {
            let p = Arc::clone(&pool);
            let spawned = std::thread::Builder::new()
                .name(format!("dj-pool-{i}"))
                .spawn(move || p.worker_loop());
            // A failed spawn degrades capacity, never correctness: every
            // section's caller is a stepper of last resort.
            if let Ok(h) = spawned {
                SPAWNED_TOTAL.fetch_add(1, Ordering::Relaxed);
                #[cfg(test)]
                SPAWNED_HERE.with(|n| n.set(n.get() + 1));
                handles.push(h);
            }
        }
        drop(handles);
        pool
    }

    /// The process-wide shared pool, created on first use with
    /// `available_parallelism - 1` threads (min 3, so a section wider than
    /// a small machine still gets its steppers) — the calling thread of
    /// every section is the extra stepper.
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::new(n.saturating_sub(1).max(3))
        })
    }

    /// Total OS threads ever spawned by pools in this process — flat across
    /// repeated sections once the global pool is warm.
    pub fn spawned_total() -> usize {
        SPAWNED_TOTAL.load(Ordering::Relaxed)
    }

    /// Run one parallel section to completion.
    ///
    /// At most `width` steppers (this calling thread plus pool threads) are
    /// inside `step` concurrently. Returns once some stepper has returned
    /// [`Step::Done`] and every in-flight step has retired. Panics if a
    /// pool-thread step panicked (after the section is safely retired),
    /// mirroring scoped-thread propagation.
    pub fn run_section(&self, width: usize, step: &StepFn<'_>) {
        let width = width.max(1);
        if width == 1 {
            // Degenerate section: no sharing possible, skip registration.
            while step() == Step::Worked {}
            return;
        }
        // SAFETY: erasing the borrow lifetime only; `SectionGuard` below
        // guarantees the pointer is unreachable once the borrow ends.
        let erased: *const StepFn<'static> =
            unsafe { std::mem::transmute::<*const StepFn<'_>, *const StepFn<'static>>(step) };
        let section = Arc::new(Section {
            step: erased,
            width,
            active: AtomicUsize::new(0),
            drained: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
        });
        {
            let mut reg = sync::lock(&self.registry);
            reg.sections.push(Arc::clone(&section));
        }
        self.work_cv.notify_all();
        let guard = SectionGuard {
            pool: self,
            section: &section,
        };
        // The caller is a stepper too: guaranteed progress under a
        // saturated or zero-thread pool.
        while !section.drained.load(Ordering::Acquire) {
            if !section.try_enter() {
                std::thread::yield_now();
                continue;
            }
            let outcome = {
                // Release the stepper slot even if the caller's own step
                // unwinds — otherwise the guard below waits forever for
                // `active == 0`.
                struct Exit<'a>(&'a Section);
                impl Drop for Exit<'_> {
                    fn drop(&mut self) {
                        self.0.exit();
                    }
                }
                let _exit = Exit(&section);
                if section.drained.load(Ordering::Acquire) {
                    Step::Done
                } else {
                    step()
                }
            };
            if outcome == Step::Done {
                section.drained.store(true, Ordering::Release);
                break;
            }
        }
        drop(guard); // deregister + wait for in-flight pool steps
        if section.panicked.load(Ordering::Acquire) {
            let msg = sync::lock(&section.panic_msg)
                .take()
                .unwrap_or_else(|| "no payload captured".into());
            panic!("worker pool section panicked: {msg}");
        }
    }

    /// Claim indices `0..n` across up to `width` steppers, collecting each
    /// index's result in order. The pooled replacement for the
    /// "spawn workers over an atomic index" scoped pattern.
    pub fn run_indexed<R, F>(&self, width: usize, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        self.run_section(width.min(n).max(1), &|| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return Step::Done;
            }
            let r = f(i);
            *sync::lock(&slots[i]) = Some(r);
            Step::Worked
        });
        slots
            .into_iter()
            .map(|m| {
                // Invariant, not error handling: the section only retires
                // after every claimed index stored its result, and a
                // panicked step re-raised above before reaching here.
                #[allow(clippy::expect_used)]
                sync::lock(&m)
                    .take()
                    .expect("every claimed index completes before the section retires")
            })
            .collect()
    }

    fn worker_loop(&self) {
        let mut reg = sync::lock(&self.registry);
        loop {
            if reg.shutdown {
                return;
            }
            let picked = Self::pick(&mut reg);
            let Some(section) = picked else {
                reg = sync::wait_timeout(&self.work_cv, reg, IDLE_POLL);
                continue;
            };
            drop(reg);
            // SAFETY: see `Section::step` — the caller cannot invalidate
            // the closure while `active > 0`.
            let step = unsafe { &*section.step };
            let outcome = catch_unwind(AssertUnwindSafe(step));
            reg = sync::lock(&self.registry);
            match outcome {
                Ok(Step::Worked) => {}
                Ok(Step::Done) => section.drained.store(true, Ordering::Release),
                Err(payload) => {
                    let mut msg = sync::lock(&section.panic_msg);
                    if msg.is_none() {
                        *msg = Some(panic_message(payload.as_ref()));
                    }
                    drop(msg);
                    section.panicked.store(true, Ordering::Release);
                    section.drained.store(true, Ordering::Release);
                }
            }
            section.exit();
            // The caller may be waiting on active == 0 under the registry
            // lock we hold — wake it.
            self.done_cv.notify_all();
        }
    }

    /// Round-robin pick of the next eligible section, reserving a stepper
    /// slot in it. Called under the registry lock.
    fn pick(reg: &mut Registry) -> Option<Arc<Section>> {
        let n = reg.sections.len();
        if n == 0 {
            return None;
        }
        let start = reg.cursor % n;
        for k in 0..n {
            let idx = (start + k) % n;
            let section = &reg.sections[idx];
            if !section.drained.load(Ordering::Acquire) && section.try_enter() {
                reg.cursor = (idx + 1) % n;
                return Some(Arc::clone(section));
            }
        }
        None
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut reg = sync::lock(&self.registry);
            reg.shutdown = true;
        }
        self.work_cv.notify_all();
        for h in sync::lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

/// Retires a section on drop: marks it drained, removes it from the
/// registry (no new picks), then waits for every in-flight step to exit —
/// after which the erased closure pointer is provably unreachable. Runs on
/// the normal path *and* when the caller unwinds out of its own step.
struct SectionGuard<'a> {
    pool: &'a WorkerPool,
    section: &'a Arc<Section>,
}

impl Drop for SectionGuard<'_> {
    fn drop(&mut self) {
        self.section.drained.store(true, Ordering::Release);
        let mut reg = sync::lock(&self.pool.registry);
        reg.sections.retain(|s| !Arc::ptr_eq(s, self.section));
        while self.section.active.load(Ordering::Acquire) > 0 {
            reg = sync::wait_timeout(&self.pool.done_cv, reg, IDLE_POLL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_collects_in_order() {
        let pool = WorkerPool::new(3);
        let out = pool.run_indexed(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_zero_items_and_width_one() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run_indexed(1, 3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn zero_thread_pool_still_completes() {
        let pool = WorkerPool::new(0);
        let sum: usize = pool.run_indexed(8, 50, |i| i).iter().sum();
        assert_eq!(sum, (0..50).sum());
    }

    #[test]
    fn sections_share_pool_threads_fairly() {
        // Two sections run back-to-back from two caller threads; both must
        // complete (round-robin never starves either).
        let pool = WorkerPool::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let p = &pool;
                s.spawn(move || {
                    let out = p.run_indexed(3, 64, |i| i + 1);
                    assert_eq!(out.len(), 64);
                });
            }
        });
    }

    #[test]
    fn width_caps_concurrent_steppers() {
        let pool = WorkerPool::new(8);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run_indexed(2, 200, |_| {
            let l = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(l, Ordering::SeqCst);
            std::thread::yield_now();
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "width budget exceeded");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let hit = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(3, 10, |i| {
                if i == 4 {
                    panic!("boom in step 4");
                }
                i
            });
        }));
        // The original payload survives the pool boundary: whether a pool
        // thread (re-raised with context) or the caller itself hit the
        // panic, the message names the culprit.
        let payload = hit.unwrap_err();
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("boom in step 4"), "payload lost: {msg}");
        // The pool survives a panicked section.
        assert_eq!(pool.run_indexed(3, 3, |i| i), vec![0, 1, 2]);
    }

    /// Counted per thread: the sibling tests above build private pools on
    /// their own threads meanwhile, and the process-wide total sees those
    /// (`tests/service_runtime.rs` has no such siblings and reads it).
    #[test]
    fn global_pool_spawns_once() {
        let spawned_here = || SPAWNED_HERE.with(std::cell::Cell::get);
        WorkerPool::global().run_indexed(2, 4, |i| i);
        let before = spawned_here();
        for _ in 0..5 {
            WorkerPool::global().run_indexed(4, 16, |i| i);
        }
        assert_eq!(
            spawned_here(),
            before,
            "warm global pool must not re-spawn threads"
        );
    }
}
