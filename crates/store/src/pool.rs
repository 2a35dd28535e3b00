//! Buffers a run reuses shard after shard.
//!
//! Every shard the spill and egress path touches passes through a few
//! buffers of megabytes: the slot file as read, the frame a stage or an
//! ingest builds, each column body encoded and each region decompressed,
//! and the codec's match table. Allocated fresh for every shard, each one
//! pays its pages' first-touch faults again, because the allocator hands
//! blocks that large back to the OS when they are freed. A [`BufferPool`]
//! keeps them instead: a buffer on loan ([`PooledBuf`]) returns to its pool
//! when it drops, and the next request takes the free buffer that holds it
//! most tightly, so a buffer keeps serving requests of about its size.
//!
//! A pool is neither thread-local nor process-wide. A run owns one, shared
//! by its spools and the frames read out of them. A run that shares its
//! process with other runs (a runtime job) lets go of the free buffers at
//! the end of every pass ([`BufferPool::release`]); a run alone keeps them
//! for its next pass. Nothing in a pool outlives the run, and the pool
//! never holds more buffers than were on loan at once.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

use dj_core::sync::lock;

/// A run's free buffers. Cloning shares the pool.
#[derive(Clone, Default)]
pub struct BufferPool(Arc<Free>);

#[derive(Default)]
struct Free {
    frames: Mutex<Vec<Vec<u8>>>,
    raw: Mutex<Vec<Vec<u8>>>,
    tables: Mutex<Vec<Vec<u32>>>,
}

/// What a buffer holds. The pool keeps the two kinds apart because they
/// fill their capacity differently. A frame being built reserves room for
/// the worst case of each region it compresses and writes far less, so
/// most of its pages are never touched. A region decompressed into such a
/// buffer would touch them all and keep them resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holds {
    /// Sealed frames: slot files as read, frames being built.
    Frames,
    /// Raw bytes: column bodies, decompressed regions.
    Raw,
}

impl BufferPool {
    /// An empty buffer for `holds` with room for `want` bytes: the free
    /// buffer that holds `want` most tightly, else the largest free one,
    /// regrown.
    pub fn take(&self, holds: Holds, want: usize) -> PooledBuf {
        self.take_by(holds, Some(want))
    }

    /// An empty buffer for `holds` bytes of a size not known yet: the
    /// largest free one.
    pub fn take_largest(&self, holds: Holds) -> PooledBuf {
        self.take_by(holds, None)
    }

    fn bag(&self, holds: Holds) -> &Mutex<Vec<Vec<u8>>> {
        match holds {
            Holds::Frames => &self.0.frames,
            Holds::Raw => &self.0.raw,
        }
    }

    fn take_by(&self, holds: Holds, want: Option<usize>) -> PooledBuf {
        let mut bytes = {
            let mut free = lock(self.bag(holds));
            let by_size = free.iter().enumerate().map(|(i, b)| (b.capacity(), i));
            let fits = want.and_then(|w| by_size.clone().filter(|(c, _)| *c >= w).min());
            match fits.or_else(|| by_size.max()) {
                Some((_, i)) => free.swap_remove(i),
                None => Vec::new(),
            }
        };
        bytes.clear();
        let want = want.unwrap_or(0);
        if bytes.capacity() < want {
            // Dropped rather than grown: nothing in it needs copying.
            bytes = Vec::with_capacity(want);
        }
        PooledBuf {
            bytes,
            holds,
            pool: self.clone(),
        }
    }

    /// Let go of every free buffer; buffers on loan still return here.
    pub fn release(&self) {
        lock(&self.0.frames).clear();
        lock(&self.0.raw).clear();
        lock(&self.0.tables).clear();
    }

    /// Lend `f` a codec match table (see `codec::compress_into`).
    pub(crate) fn with_table<R>(&self, f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
        let mut table = lock(&self.0.tables).pop().unwrap_or_default();
        let r = f(&mut table);
        lock(&self.0.tables).push(table);
        r
    }
}

/// A byte buffer on loan from a [`BufferPool`], returned to it on drop.
/// Reads and writes as the `Vec<u8>` it holds.
pub struct PooledBuf {
    bytes: Vec<u8>,
    holds: Holds,
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

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if self.bytes.capacity() > 0 {
            lock(self.pool.bag(self.holds)).push(std::mem::take(&mut self.bytes));
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

impl PartialEq for PooledBuf {
    fn eq(&self, other: &PooledBuf) -> bool {
        self.bytes == other.bytes
    }
}

impl PartialEq<Vec<u8>> for PooledBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.bytes == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dropped_buffer_serves_the_next_request_that_fits_it() {
        let pool = BufferPool::default();
        let raw = |want| pool.take(Holds::Raw, want);
        let (small, big) = (raw(100), raw(10_000));
        let (small_at, big_at) = (small.as_ptr(), big.as_ptr());
        drop((small, big));
        // The tightest fit, whatever the order of requests.
        let b = raw(5_000);
        let s = raw(50);
        assert_eq!((s.as_ptr(), b.as_ptr()), (small_at, big_at));
        assert!(s.is_empty() && b.is_empty());
        drop((s, b));
        // Too large for any: the largest is dropped for a new one, so the
        // pool still holds two buffers.
        let huge = raw(20_000);
        assert!(huge.capacity() >= 20_000);
        assert_eq!(pool.take_largest(Holds::Raw).capacity(), 100);
        drop(huge);
        assert!(pool.take_largest(Holds::Raw).capacity() >= 20_000);
        assert_eq!(lock(&pool.0.raw).len(), 2);
        // A frame buffer is never handed out for raw bytes, or back.
        assert_eq!(pool.take_largest(Holds::Frames).capacity(), 0);
        drop(pool.take(Holds::Frames, 30_000));
        assert!(raw(25_000).capacity() < 30_000);
        assert_eq!(lock(&pool.0.frames).len(), 1);
        // A buffer taken for good never returns.
        let kept = raw(10).into_vec();
        assert!(kept.capacity() >= 10);
        assert_eq!(lock(&pool.0.raw).len(), 1);
        // Released, the pool holds nothing until a loan comes back.
        let loan = raw(1_000);
        let at = loan.as_ptr();
        pool.release();
        assert_eq!(pool.take_largest(Holds::Raw).capacity(), 0);
        drop(loan);
        assert_eq!(pool.take_largest(Holds::Raw).as_ptr(), at);
    }
}
