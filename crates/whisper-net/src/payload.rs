//! Reference-counted message payloads and the per-shard buffer pool.
//!
//! Every simulated packet used to carry its own `Vec<u8>`, allocated at
//! the sender and freed after delivery — one heap round-trip per event,
//! which dominates the engine's per-event cost at 100k+ nodes. This
//! module removes that traffic:
//!
//! * [`Payload`] is a zero-dependency `Arc<[u8]>`-style buffer. Cloning
//!   is a reference-count bump, so fan-out (the same bytes sent to N
//!   peers) shares one allocation instead of making N copies.
//! * [`PayloadPool`] is a free list of retired buffers keyed by
//!   power-of-two size class. Each engine shard owns one: buffers are
//!   drawn at encode time ([`Ctx::send_wire`](crate::sim::Ctx::send_wire))
//!   and recycled after `on_message` returns, when the engine holds the
//!   only reference.
//!
//! # Ownership and aliasing rules (DESIGN.md §13)
//!
//! A `Payload` is **immutable for its entire lifetime as a message**: it
//! is filled exactly once (at encode time, while uniquely owned) and
//! never mutated afterwards. Protocols receive `&Payload` in
//! `on_message` and may clone it freely; clones are snapshots — the
//! engine only returns a buffer to the pool when `Arc::strong_count`
//! proves no other reference exists, so reuse is never observable.
//! Pools are strictly shard-local: a buffer freed on shard *i* can only
//! be reused by shard *i*, which is why pool hit/miss statistics (the
//! `net.pool_*` counters) are the one counter family that legitimately
//! varies with the shard count, and why they are exempt from the
//! determinism-trace comparison — exactly like the `*_wall_us` samples.
//! Everything else (payload bytes, event order, and the `net.alloc*` /
//! `net.payload_*` provenance counters) stays byte-identical for any
//! shard count, even though each shard's pool recycles along its own
//! history.

use std::ops::Deref;
use std::sync::Arc;

/// Smallest buffer capacity the pool retains (class 0).
const MIN_CLASS_CAP: usize = 64;
/// Number of power-of-two size classes (64 B … 8 KiB, last unbounded).
const NUM_CLASSES: usize = 8;
/// Retained buffers per class; beyond this, returned buffers are freed.
const CLASS_LIMIT: usize = 4096;
/// Capacity hint for encode scratch buffers when the final size is
/// unknown (typical gossip / circuit packets are a few hundred bytes).
const ENCODE_HINT: usize = 512;

/// An immutable, reference-counted message payload.
///
/// Constructed from a `Vec<u8>` (fresh allocation) or drawn from a
/// [`PayloadPool`] (recycled buffer); cloning bumps a reference count.
/// The `pooled` provenance flag feeds the engine's deterministic
/// allocation accounting (`net.alloc_bytes` vs `net.payload_pooled`) —
/// it never affects behaviour.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<u8>>,
    pooled: bool,
}

impl Payload {
    /// Wraps a freshly allocated buffer (counted as an allocation at the
    /// engine boundary).
    pub fn fresh(buf: Vec<u8>) -> Self {
        Payload { buf: Arc::new(buf), pooled: false }
    }

    /// Wraps a buffer whose storage came from a pool.
    pub(crate) fn recycled(buf: Vec<u8>) -> Self {
        Payload { buf: Arc::new(buf), pooled: true }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Whether the backing storage was drawn from a [`PayloadPool`].
    pub fn is_pooled(&self) -> bool {
        self.pooled
    }

    /// Whether other clones of this payload are alive.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.buf) > 1
    }

    /// Recovers the backing buffer if this is the only reference.
    fn into_unique_buf(self) -> Option<Vec<u8>> {
        Arc::try_unwrap(self.buf).ok()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for Payload {
    fn from(buf: Vec<u8>) -> Self {
        Payload::fresh(buf)
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::fresh(bytes.to_vec())
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.buf.len())
            .field("pooled", &self.pooled)
            .field("shared", &self.is_shared())
            .finish()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

/// Host-side (never trace-visible) pool statistics, drained into the
/// exempt `net.pool_*` counters at metric sync points.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PoolStats {
    /// Buffers served from a free list.
    pub hits: u64,
    /// Requests served by a fresh allocation.
    pub misses: u64,
    /// Bytes allocated on misses (capacity requested).
    pub miss_bytes: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
    /// Returns dropped because a clone was still alive.
    pub drop_shared: u64,
    /// Returns dropped because the class was full (or the buffer tiny).
    pub drop_full: u64,
}

/// A free list of retired payload buffers, keyed by power-of-two size
/// class. One per engine shard; never shared across shards or threads.
#[derive(Debug)]
pub struct PayloadPool {
    classes: Vec<Vec<Vec<u8>>>,
    stats: PoolStats,
}

impl PayloadPool {
    /// Creates an empty pool.
    pub(crate) fn new() -> Self {
        PayloadPool { classes: vec![Vec::new(); NUM_CLASSES], stats: PoolStats::default() }
    }

    /// Smallest class whose buffers are guaranteed to hold `len` bytes.
    fn class_for_take(len: usize) -> usize {
        let mut class = 0;
        while class < NUM_CLASSES - 1 && (MIN_CLASS_CAP << class) < len {
            class += 1;
        }
        class
    }

    /// Largest class whose minimum capacity `cap` satisfies.
    fn class_for_put(cap: usize) -> usize {
        let mut class = 0;
        while class < NUM_CLASSES - 1 && (MIN_CLASS_CAP << (class + 1)) <= cap {
            class += 1;
        }
        class
    }

    /// Takes an empty buffer with capacity ≥ `min_capacity` when one is
    /// available (preferring the tightest size class), else allocates.
    ///
    /// Misses surface in `net.pool_misses`, never as fresh-provenance
    /// payloads, so the honest total heap-allocation figure is
    /// `net.allocs + net.pool_misses` with no double counting.
    pub fn take(&mut self, min_capacity: usize) -> Vec<u8> {
        let start = Self::class_for_take(min_capacity);
        // Miss allocations are rounded up to their class's guarantee so a
        // returned buffer lands back in the class future same-size takes
        // scan first (an exact-size allocation would recycle one class
        // down and never be found again).
        let cap = min_capacity.max(MIN_CLASS_CAP << start);
        // Tightest fitting class first, then larger ones. The top class is
        // unbounded above, so a buffer served from it for an oversized
        // request may still need to grow — harmless.
        for class in start..NUM_CLASSES {
            if let Some(buf) = self.classes[class].pop() {
                self.stats.hits += 1;
                return buf;
            }
        }
        self.stats.misses += 1;
        self.stats.miss_bytes += cap as u64;
        Vec::with_capacity(cap)
    }

    /// Takes a scratch buffer for wire encoding (final size unknown).
    pub fn take_scratch(&mut self) -> Vec<u8> {
        self.take(ENCODE_HINT)
    }

    /// Returns a payload's buffer to the free list when the engine holds
    /// the only reference; otherwise the storage is simply dropped (or
    /// kept alive by its clones).
    pub fn recycle(&mut self, payload: Payload) {
        if payload.is_shared() {
            self.stats.drop_shared += 1;
            return;
        }
        let Some(mut buf) = payload.into_unique_buf() else {
            self.stats.drop_shared += 1;
            return;
        };
        let cap = buf.capacity();
        if cap < MIN_CLASS_CAP {
            self.stats.drop_full += 1;
            return;
        }
        let class = Self::class_for_put(cap);
        if self.classes[class].len() >= CLASS_LIMIT {
            self.stats.drop_full += 1;
            return;
        }
        buf.clear();
        self.stats.recycled += 1;
        self.classes[class].push(buf);
    }

    /// Drains and resets the accumulated statistics.
    pub(crate) fn take_stats(&mut self) -> PoolStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let p = Payload::fresh(vec![1, 2, 3]);
        assert!(!p.is_shared());
        let q = p.clone();
        assert!(p.is_shared() && q.is_shared());
        assert_eq!(&p[..], &q[..]);
        drop(q);
        assert!(!p.is_shared());
    }

    #[test]
    fn pool_round_trip_reuses_capacity() {
        let mut pool = PayloadPool::new();
        let buf = pool.take(100);
        assert!(buf.capacity() >= 100);
        let cap = buf.capacity();
        pool.recycle(Payload::recycled(buf));
        let again = pool.take(100);
        assert_eq!(again.capacity(), cap, "same buffer came back");
        assert!(again.is_empty(), "recycled buffers are cleared");
        let stats = pool.take_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.recycled, 1);
    }

    #[test]
    fn shared_payloads_are_never_recycled() {
        let mut pool = PayloadPool::new();
        let p = Payload::recycled(pool.take(64));
        let clone = p.clone();
        pool.recycle(p);
        // The clone still sees its bytes; the buffer was not retained.
        assert_eq!(clone.len(), 0);
        let stats = pool.take_stats();
        assert_eq!(stats.recycled, 0);
        assert_eq!(stats.drop_shared, 1);
        assert!(pool.take(64).capacity() >= 64); // fresh, not the shared one
    }

    #[test]
    fn size_classes_fit_requests() {
        // A recycled large buffer must not be served for a request it
        // fits, unless its class guarantees the capacity.
        let mut pool = PayloadPool::new();
        let mut big = pool.take(4096);
        big.extend_from_slice(&[0u8; 4096]);
        let big_cap = big.capacity();
        pool.recycle(Payload::recycled(big));
        let served = pool.take(2048);
        assert!(served.capacity() >= 2048);
        assert_eq!(served.capacity(), big_cap, "larger class serves smaller need");
    }

    #[test]
    fn class_boundaries() {
        assert_eq!(PayloadPool::class_for_take(0), 0);
        assert_eq!(PayloadPool::class_for_take(64), 0);
        assert_eq!(PayloadPool::class_for_take(65), 1);
        assert_eq!(PayloadPool::class_for_take(1 << 20), NUM_CLASSES - 1);
        assert_eq!(PayloadPool::class_for_put(64), 0);
        assert_eq!(PayloadPool::class_for_put(127), 0);
        assert_eq!(PayloadPool::class_for_put(128), 1);
        assert_eq!(PayloadPool::class_for_put(1 << 20), NUM_CLASSES - 1);
    }
}
