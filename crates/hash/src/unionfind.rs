//! A lock-free disjoint-set forest for duplicate clustering.
//!
//! Near-duplicate detection produces candidate *pairs*; deduplication
//! keeps one representative per connected component. [`ConcurrentUnionFind`]
//! turns verified pairs into components from any number of threads at
//! once, through shared atomic parent links, and keeps each component's
//! first occurrence.

use std::sync::atomic::{AtomicU32, Ordering};

/// Lock-free union-find over `0..n` for dedup clustering.
///
/// Parent links are atomic and every link points to a strictly smaller
/// index, so the structure is acyclic under any interleaving and the root
/// of each component is its minimum element — which makes the
/// first-occurrence keep mask a root check. Workers call
/// [`union`](ConcurrentUnionFind::union) directly on verified pairs; it
/// takes `&self`.
///
/// The component partition after all unions is independent of thread
/// interleaving (it is the transitive closure of the unioned pairs), so
/// masks derived from it are deterministic.
#[derive(Debug)]
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
}

impl ConcurrentUnionFind {
    pub fn new(n: usize) -> ConcurrentUnionFind {
        assert!(n <= u32::MAX as usize, "element count exceeds u32 range");
        ConcurrentUnionFind {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.parent.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative (minimum element) of `x`'s component, with lock-free
    /// path halving. A failed halving CAS is benign: some other thread
    /// already shortened the path.
    pub fn find(&self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x].load(Ordering::Acquire) as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p].load(Ordering::Acquire) as usize;
            if gp != p {
                let _ = self.parent[x].compare_exchange_weak(
                    p as u32,
                    gp as u32,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
            x = p;
        }
    }

    /// Merge the components of `a` and `b`; returns true when this call
    /// performed the link. Safe to call concurrently from many threads.
    pub fn union(&self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        loop {
            if ra == rb {
                return false;
            }
            // Link the larger root under the smaller one; the CAS only
            // succeeds while `ra` is still a root, so links always point
            // downward and never form cycles.
            if ra < rb {
                std::mem::swap(&mut ra, &mut rb);
            }
            match self.parent[ra].compare_exchange(
                ra as u32,
                rb as u32,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => {
                    ra = self.find(actual as usize);
                    rb = self.find(rb);
                }
            }
        }
    }

    /// Keep mask retaining exactly the smallest index of each component.
    /// Call after all unions have completed (quiescent point): because
    /// every link points downward, the root *is* the minimum index, so a
    /// sample survives iff it is its own root.
    pub fn first_occurrence_mask(&self) -> Vec<bool> {
        (0..self.len()).map(|i| self.find(i) == i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_link_to_the_component_minimum() {
        let cuf = ConcurrentUnionFind::new(10);
        for (a, b) in [(0, 3), (3, 7), (2, 5), (8, 1), (1, 0)] {
            assert!(cuf.union(a, b), "({a}, {b}) joins two components");
        }
        assert!(!cuf.union(5, 2), "already one component");
        assert_eq!(cuf.find(7), 0, "root is the component minimum");
        assert_eq!(cuf.find(5), 2);
        assert_eq!(
            cuf.first_occurrence_mask(),
            [true, false, true, false, true, false, true, false, false, true]
        );
    }

    #[test]
    fn concurrent_union_under_threads_is_deterministic() {
        // 64 elements chained pairwise from many threads; the final
        // components must be the single chain regardless of interleaving.
        let cuf = ConcurrentUnionFind::new(64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cuf = &cuf;
                s.spawn(move || {
                    for i in (t..63).step_by(4) {
                        cuf.union(i, i + 1);
                    }
                });
            }
        });
        let mask = cuf.first_occurrence_mask();
        assert!(mask[0]);
        assert!(mask[1..].iter().all(|&k| !k));
    }

    #[test]
    fn concurrent_empty() {
        let cuf = ConcurrentUnionFind::new(0);
        assert!(cuf.is_empty());
        assert!(cuf.first_occurrence_mask().is_empty());
    }
}
