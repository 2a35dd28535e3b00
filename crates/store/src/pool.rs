//! Buffers reused shard after shard.
//!
//! Every shard the spill and egress path touches passes through buffers
//! of megabytes: the slot file as read and the frame a stage or an ingest
//! builds. Allocated fresh for every shard, each pays its pages'
//! first-touch faults again. A [`BufferPool`] keeps them: a buffer on loan
//! ([`PooledBuf`]) returns to its pool when it drops, and a request, which
//! states its size, takes the free buffer that holds it most tightly. A
//! buffer more than twice the request and more than 1 MiB past it is not
//! lent, so a small request never holds what a large one then allocates
//! again (every buffer grew to the largest request that way). A request
//! nothing fits regrows the largest free buffer too small for it: dropped
//! for a new one instead, `web-file` peaked 10 MB higher. The pool counts
//! its bytes ([`BufferPool::bytes`]) and frees a returning buffer that
//! would take its free bytes past twice the most it ever had on loan at
//! once: the phases of a pass take different buffers, which on
//! `tests/alloc_budget.rs`'s warmed spool cycle add up to 1.2 times that
//! peak.
//!
//! A direct run owns a pool. A `dj_exec::Runtime` owns one for all its
//! jobs, so what one job's pass frees serves the next pass of any job.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

use dj_core::sync::lock;

/// Free buffers, shared by the runs that reuse them. Cloning shares the
/// pool.
#[derive(Clone, Default)]
pub struct BufferPool(Arc<Mutex<Free>>);

#[derive(Default)]
struct Free {
    buffers: Vec<Vec<u8>>,
    /// Capacity free, on loan (as lent), and most ever on loan at once.
    bytes: usize,
    lent: usize,
    peak: usize,
}

impl BufferPool {
    /// An empty buffer with room for `want` bytes: the free buffer that
    /// holds `want` most tightly, unless it is more than twice `want` and
    /// more than 1 MiB past it, else the largest free one too small,
    /// regrown, else a new one.
    pub fn take(&self, want: usize) -> PooledBuf {
        let mut free = lock(&self.0);
        let bag = &mut free.buffers;
        let by_size = bag.iter().enumerate().map(|(i, b)| (b.capacity(), i));
        let fits = (by_size.clone())
            .filter(|(c, _)| *c >= want && *c - want <= want.max(1 << 20))
            .min();
        // Else the largest one too small for `want`, regrown.
        let smaller = by_size.filter(|(c, _)| *c < want).max();
        let found = fits.or(smaller).map(|(_, i)| bag.swap_remove(i));
        let mut bytes = found.unwrap_or_default();
        free.bytes -= bytes.capacity();
        let loan = bytes.capacity().max(want);
        free.lent += loan;
        free.peak = free.peak.max(free.lent);
        drop(free);
        bytes.clear();
        bytes.reserve_exact(want);
        PooledBuf {
            bytes,
            loan,
            pool: self.clone(),
        }
    }

    /// Bytes this pool holds: its free buffers and those on loan, each as
    /// it was lent.
    pub fn bytes(&self) -> usize {
        let free = lock(&self.0);
        free.bytes + free.lent
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BufferPool({} bytes)", self.bytes())
    }
}

/// A byte buffer on loan from a [`BufferPool`], returned to it on drop.
/// Reads and writes as the `Vec<u8>` it holds.
pub struct PooledBuf {
    bytes: Vec<u8>,
    /// The capacity the pool counts as lent.
    loan: usize,
    pool: BufferPool,
}

impl PooledBuf {
    /// The pool this buffer returns to: scratch for work on its bytes.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The bytes, kept: the buffer leaves the pool for good.
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.bytes)
    }
}

/// Ends the loan; keeps the buffer unless that takes the free bytes past the cap.
impl Drop for PooledBuf {
    fn drop(&mut self) {
        let bytes = std::mem::take(&mut self.bytes);
        let mut free = lock(&self.pool.0);
        free.lent -= self.loan;
        if bytes.capacity() > 0 && free.bytes + bytes.capacity() <= 2 * free.peak {
            free.bytes += bytes.capacity();
            free.buffers.push(bytes);
        }
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.bytes
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }
}

impl fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PooledBuf({} bytes)", self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(free, on loan, peak on loan)` bytes.
    fn counts(pool: &BufferPool) -> (usize, usize, usize) {
        let free = lock(&pool.0);
        (free.bytes, free.lent, free.peak)
    }

    #[test]
    fn a_dropped_buffer_serves_the_next_request_that_fits_it() {
        const K: usize = 1 << 10;
        const M: usize = 1 << 20;
        let pool = BufferPool::default();
        let raw = |want| pool.take(want);
        let (small, big) = (raw(100 * K), raw(10 * M));
        let (small_at, big_at) = (small.as_ptr(), big.as_ptr());
        drop((small, big));
        assert_eq!(counts(&pool), (10 * M + 100 * K, 0, 10 * M + 100 * K));
        // The tightest fit, whatever the order of requests, emptied.
        let mut b = raw(5 * M);
        let s = raw(50 * K);
        assert_eq!((s.as_ptr(), b.as_ptr()), (small_at, big_at));
        b.extend_from_slice(b"written");
        drop((s, b));
        assert!(raw(6 * M).is_empty());
        // Within 1 MiB of a request, any free buffer serves it.
        assert_eq!(raw(K).as_ptr(), small_at);
        // More than twice the request and 1 MiB past it: not lent. The
        // free buffer too small for it is regrown instead.
        let mid = raw(4 * M);
        assert!(mid.as_ptr() != big_at && mid.capacity() >= 4 * M);
        assert_eq!(counts(&pool), (10 * M, 4 * M, 10 * M + 100 * K));
        drop(mid);
        // Grown on loan past twice the peak, a buffer returns to be freed.
        let mut grown = raw(M);
        grown.resize(10 * M, 0);
        drop(grown);
        assert_eq!(pool.bytes(), 14 * M, "returned over the cap, freed");
        assert_eq!(raw(6 * M).as_ptr(), big_at);
        // A buffer taken for good never returns, and its loan ends.
        let kept = raw(10 * M).into_vec();
        assert!(kept.capacity() >= 10 * M);
        assert_eq!(counts(&pool).1, 0);
        // Bytes moved out stay on loan until they are put back.
        let mut loan = raw(6 * M);
        let at = loan.as_ptr();
        let mut text = std::mem::take(&mut *loan);
        text.extend_from_slice(b"moved out");
        assert_eq!(counts(&pool).1, 6 * M);
        *loan = text;
        drop(loan);
        assert_eq!(raw(3 * M).as_ptr(), at);
    }

    /// Four threads, each holding a buffer of every size at once per round,
    /// sizes in a different order and a little under their class after
    /// the first round: the pool reaches its size in round one and stays
    /// there, and no request is lent a buffer of another size class.
    #[test]
    fn mixed_sizes_from_four_threads_keep_the_pool_at_its_peak() {
        const CLASSES: [usize; 3] = [64 << 10, 1 << 20, 16 << 20];
        const THREADS: usize = 4;
        let pool = BufferPool::default();
        let gate = std::sync::Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (pool, gate) = (&pool, &gate);
                    scope.spawn(move || {
                        // Lent for a request: (want, capacity). A panic here
                        // would leave the others waiting at the gate.
                        let mut lent = Vec::new();
                        for round in 0..20 {
                            let held: Vec<PooledBuf> = (0..CLASSES.len())
                                .map(|k| {
                                    let class = CLASSES[(k + t + round) % CLASSES.len()];
                                    let want = class - (round > 0) as usize * (t + round) * 512;
                                    let buf = pool.take(want);
                                    lent.push((want, buf.capacity()));
                                    buf
                                })
                                .collect();
                            gate.wait();
                            drop(held);
                            // Returned; held until the round is counted.
                            gate.wait();
                            gate.wait();
                        }
                        lent
                    })
                })
                .collect();
            let mut free = Vec::new();
            for _ in 0..20 {
                gate.wait();
                gate.wait();
                free.push(counts(&pool));
                gate.wait();
            }
            assert!(free
                .iter()
                .all(|(bytes, lent, peak)| *lent == 0 && bytes <= peak));
            let free: Vec<usize> = free.into_iter().map(|(bytes, ..)| bytes).collect();
            assert!(free[2..].iter().all(|b| *b == free[1]), "{free:?}");
            for t in threads {
                let lent = t.join().unwrap();
                let misfit = lent
                    .iter()
                    .find(|(want, cap)| cap < want || *cap > 2 * want);
                assert_eq!(misfit, None, "a buffer lent for a request it does not fit");
            }
        });
    }
}
