//! Recycled field buffers for the hot message path.
//!
//! Every protocol round builds numeric field buffers (one per sent
//! record) and drops them again on delivery. Allocating those on the
//! heap each time made the gossip path allocation-bound; the
//! [`BufferPool`] instead keeps the freed allocations on a freelist so
//! steady-state rounds reuse capacity instead of touching the
//! allocator.
//!
//! Ownership rules (see DESIGN.md §8):
//!
//! * buffers are *acquired* empty (recycled capacity, length 0);
//! * a buffer travels inside a [`Payload::Record`] envelope;
//! * whoever consumes the envelope *returns* the buffer — the
//!   [`Network`](crate::Network) recycles on loss, dead-letter and
//!   mailbox clearing, the protocol round driver recycles consumed
//!   inboxes;
//! * returning a buffer through [`BufferPool::recycle`] is always
//!   optional — a dropped buffer is a missed reuse, never a leak or a
//!   double-free.

use crate::message::Payload;

/// A freelist of `f64` field buffers.
///
/// The pool stores `Vec<f64>` rather than `Box<[f64]>` so the retained
/// *capacity* survives reuse across messages of different sizes; wire
/// accounting uses the length, so pooling never changes byte counts.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<f64>>,
    fresh: u64,
    reused: u64,
    /// Buffers currently handed out (acquired, not yet returned).
    outstanding: usize,
    /// Highest `outstanding` ever observed.
    high_water: usize,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out an empty buffer, reusing a freed allocation when one
    /// is available.
    pub fn acquire(&mut self) -> Vec<f64> {
        self.outstanding += 1;
        self.high_water = self.high_water.max(self.outstanding);
        match self.free.pop() {
            Some(buf) => {
                self.reused += 1;
                buf
            }
            None => {
                self.fresh += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the freelist. Zero-capacity buffers are
    /// dropped — hoarding them would recycle nothing. Either way the
    /// buffer counts as returned for [`BufferPool::outstanding`].
    pub fn release(&mut self, mut buf: Vec<f64>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Extracts and releases the field buffer of a consumed payload.
    /// Non-record payloads are simply dropped.
    pub fn recycle(&mut self, payload: Payload) {
        if let Payload::Record { fields, .. } = payload {
            self.release(fields);
        }
    }

    /// Buffers currently parked on the freelist.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Buffers created from scratch (pool misses) since construction.
    /// A steady-state protocol loop must keep this constant — the
    /// pool-reuse equivalence test pins exactly that.
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh
    }

    /// Buffers handed out from the freelist (pool hits).
    pub fn reuses(&self) -> u64 {
        self.reused
    }

    /// Buffers currently in flight: acquired and not yet returned via
    /// [`BufferPool::release`]/[`BufferPool::recycle`]. Dropping a
    /// buffer without returning it leaves it counted here forever —
    /// deliberately, because that silent drop is exactly the leak shape
    /// a long-lived service makes observable (a batch run hides it
    /// behind process exit). A steady-state loop must return to the
    /// same `outstanding` level every round.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The highest [`BufferPool::outstanding`] ever observed — the
    /// pool's true working-set bound. A soak run asserts this stays at
    /// the analytic `2n + 2` envelope no matter how many events flow
    /// through; unbounded growth here means buffers leak out of the
    /// ownership cycle (see the module docs) faster than they return.
    pub fn high_water_mark(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;

    #[test]
    fn acquire_release_reuses_capacity() {
        let mut pool = BufferPool::new();
        let mut buf = pool.acquire();
        assert_eq!(pool.fresh_allocations(), 1);
        buf.extend([1.0, 2.0, 3.0]);
        let ptr = buf.as_ptr();
        pool.release(buf);
        assert_eq!(pool.free_len(), 1);
        let again = pool.acquire();
        assert_eq!(again.len(), 0, "recycled buffers come back empty");
        assert!(again.capacity() >= 3);
        assert_eq!(again.as_ptr(), ptr, "same allocation came back");
        assert_eq!(pool.reuses(), 1);
        assert_eq!(pool.fresh_allocations(), 1);
    }

    #[test]
    fn zero_capacity_buffers_are_not_hoarded() {
        let mut pool = BufferPool::new();
        pool.release(Vec::new());
        assert_eq!(pool.free_len(), 0);
    }

    #[test]
    fn outstanding_and_high_water_track_the_ownership_cycle() {
        let mut pool = BufferPool::new();
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.high_water_mark(), 0);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.outstanding(), 2);
        assert_eq!(pool.high_water_mark(), 2);
        pool.release(a);
        assert_eq!(pool.outstanding(), 1, "release returns a buffer");
        // Zero-capacity buffers are dropped from the freelist but still
        // count as returned.
        pool.release(b);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.free_len(), 0, "both buffers had no capacity");
        // High water is sticky: later steady-state reuse never lowers it.
        let c = pool.acquire();
        pool.release(c);
        assert_eq!(pool.high_water_mark(), 2);
    }

    #[test]
    fn steady_state_loop_keeps_outstanding_flat() {
        let mut pool = BufferPool::new();
        for _ in 0..1000 {
            let mut buf = pool.acquire();
            buf.push(1.0);
            pool.release(buf);
        }
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.high_water_mark(), 1, "one buffer in flight at a time");
        assert_eq!(pool.fresh_allocations(), 1, "the first miss only");
        assert_eq!(pool.reuses(), 999);
    }

    #[test]
    fn recycle_extracts_record_fields_only() {
        let mut pool = BufferPool::new();
        pool.recycle(Payload::Record {
            tag: Tag::new("t"),
            fields: vec![1.0],
        });
        assert_eq!(pool.free_len(), 1);
        pool.recycle(Payload::Text("x".into()));
        assert_eq!(pool.free_len(), 1, "only record fields are pooled");
    }
}
