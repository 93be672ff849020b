//! Atomic I/O accounting shared between a store and its cursors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared atomic I/O counters. Cloning shares the underlying counters.
#[derive(Debug, Default, Clone)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    block_reads: AtomicU64,
    bytes_read: AtomicU64,
    edges_read: AtomicU64,
    d_entries: AtomicU64,
    e_entries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    cache_bytes_resident: AtomicU64,
    files_opened: AtomicU64,
    remote_fetches: AtomicU64,
    remote_bytes: AtomicU64,
    remote_retries: AtomicU64,
    remote_errors: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Positioned block fetches issued (file) or simulated (memory):
    /// one per range read, whether it was read alone or in a batch.
    pub block_reads: u64,
    /// Bytes transferred (logical for [`crate::MemStore`]).
    pub bytes_read: u64,
    /// Closure edges materialized from `L` tables (the paper's `m'_R`).
    pub edges_read: u64,
    /// `D` table entries loaded at initialization.
    pub d_entries: u64,
    /// `E` table entries loaded at initialization.
    pub e_entries: u64,
    /// Block-cache hits (block served without touching disk). Only
    /// [`crate::PagedStore`] moves these four cache counters; every
    /// other backend leaves them at 0.
    pub cache_hits: u64,
    /// Block-cache misses (each one a verified disk fetch).
    pub cache_misses: u64,
    /// Blocks evicted to stay within the cache byte budget.
    pub cache_evictions: u64,
    /// Bytes currently resident in the block cache. A gauge, not a
    /// monotonic counter: [`IoSnapshot::since`] carries the later
    /// snapshot's value through unchanged, and after
    /// [`IoStats::reset`] it refreshes on the next cache operation.
    pub cache_bytes_resident: u64,
    /// Shard files opened lazily by [`crate::ShardedStore`] /
    /// [`crate::RemoteStore`] (a query that touches only some label
    /// pairs opens only their owning files).
    pub files_opened: u64,
    /// `FETCH` requests answered by a remote block server — round
    /// trips: a batch of many ranges counts one
    /// ([`crate::RemoteStore`] only; every other backend leaves the
    /// four `remote_*` counters at 0).
    pub remote_fetches: u64,
    /// Payload bytes received from the remote block server.
    pub remote_bytes: u64,
    /// Remote request retries (reconnects, timeouts, and one-shot
    /// re-fetches after a client-side CRC mismatch).
    pub remote_retries: u64,
    /// Remote requests that failed after exhausting retries.
    pub remote_errors: u64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn add_block(&self, bytes: u64) {
        self.inner.block_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_edges(&self, n: u64) {
        self.inner.edges_read.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_d_entries(&self, n: u64) {
        self.inner.d_entries.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_e_entries(&self, n: u64) {
        self.inner.e_entries.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_cache_hit(&self) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_cache_miss(&self) {
        self.inner.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_cache_evictions(&self, n: u64) {
        self.inner.cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn set_cache_resident(&self, bytes: u64) {
        self.inner
            .cache_bytes_resident
            .store(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_file_opened(&self) {
        self.inner.files_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_remote_fetch(&self, bytes: u64) {
        self.inner.remote_fetches.fetch_add(1, Ordering::Relaxed);
        self.inner.remote_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_remote_retry(&self) {
        self.inner.remote_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_remote_error(&self) {
        self.inner.remote_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.inner.block_reads.load(Ordering::Relaxed),
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
            edges_read: self.inner.edges_read.load(Ordering::Relaxed),
            d_entries: self.inner.d_entries.load(Ordering::Relaxed),
            e_entries: self.inner.e_entries.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.inner.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.inner.cache_evictions.load(Ordering::Relaxed),
            cache_bytes_resident: self.inner.cache_bytes_resident.load(Ordering::Relaxed),
            files_opened: self.inner.files_opened.load(Ordering::Relaxed),
            remote_fetches: self.inner.remote_fetches.load(Ordering::Relaxed),
            remote_bytes: self.inner.remote_bytes.load(Ordering::Relaxed),
            remote_retries: self.inner.remote_retries.load(Ordering::Relaxed),
            remote_errors: self.inner.remote_errors.load(Ordering::Relaxed),
        }
    }

    /// Zeroes all counters (including the residency gauge, which the
    /// owning cache refreshes on its next operation).
    pub fn reset(&self) {
        self.inner.block_reads.store(0, Ordering::Relaxed);
        self.inner.bytes_read.store(0, Ordering::Relaxed);
        self.inner.edges_read.store(0, Ordering::Relaxed);
        self.inner.d_entries.store(0, Ordering::Relaxed);
        self.inner.e_entries.store(0, Ordering::Relaxed);
        self.inner.cache_hits.store(0, Ordering::Relaxed);
        self.inner.cache_misses.store(0, Ordering::Relaxed);
        self.inner.cache_evictions.store(0, Ordering::Relaxed);
        self.inner.cache_bytes_resident.store(0, Ordering::Relaxed);
        self.inner.files_opened.store(0, Ordering::Relaxed);
        self.inner.remote_fetches.store(0, Ordering::Relaxed);
        self.inner.remote_bytes.store(0, Ordering::Relaxed);
        self.inner.remote_retries.store(0, Ordering::Relaxed);
        self.inner.remote_errors.store(0, Ordering::Relaxed);
    }
}

impl IoSnapshot {
    /// Difference since an earlier snapshot. Monotonic counters
    /// subtract; `cache_bytes_resident` is a gauge and carries `self`'s
    /// (the later snapshot's) value.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.block_reads - earlier.block_reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            edges_read: self.edges_read - earlier.edges_read,
            d_entries: self.d_entries - earlier.d_entries,
            e_entries: self.e_entries - earlier.e_entries,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            cache_bytes_resident: self.cache_bytes_resident,
            files_opened: self.files_opened - earlier.files_opened,
            remote_fetches: self.remote_fetches - earlier.remote_fetches,
            remote_bytes: self.remote_bytes - earlier.remote_bytes,
            remote_retries: self.remote_retries - earlier.remote_retries,
            remote_errors: self.remote_errors - earlier.remote_errors,
        }
    }

    /// Every counter with its field name, in declaration order: the one
    /// list that a service's `STATS` (as `io_<name>=`) and `ktpm query
    /// --iostats` render.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("block_reads", self.block_reads),
            ("bytes_read", self.bytes_read),
            ("edges_read", self.edges_read),
            ("d_entries", self.d_entries),
            ("e_entries", self.e_entries),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("cache_bytes_resident", self.cache_bytes_resident),
            ("files_opened", self.files_opened),
            ("remote_fetches", self.remote_fetches),
            ("remote_bytes", self.remote_bytes),
            ("remote_retries", self.remote_retries),
            ("remote_errors", self.remote_errors),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.add_block(4096);
        s.add_block(4096);
        s.add_edges(10);
        s.add_d_entries(3);
        s.add_e_entries(5);
        s.add_cache_hit();
        s.add_cache_hit();
        s.add_cache_miss();
        s.add_cache_evictions(4);
        s.set_cache_resident(1024);
        s.add_file_opened();
        s.add_remote_fetch(100);
        s.add_remote_fetch(28);
        s.add_remote_retry();
        s.add_remote_error();
        let snap = s.snapshot();
        assert_eq!(snap.block_reads, 2);
        assert_eq!(snap.bytes_read, 8192);
        assert_eq!(snap.edges_read, 10);
        assert_eq!(snap.d_entries, 3);
        assert_eq!(snap.e_entries, 5);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_evictions, 4);
        assert_eq!(snap.cache_bytes_resident, 1024);
        assert_eq!(snap.files_opened, 1);
        assert_eq!(snap.remote_fetches, 2);
        assert_eq!(snap.remote_bytes, 128);
        assert_eq!(snap.remote_retries, 1);
        assert_eq!(snap.remote_errors, 1);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn clones_share_counters() {
        let s = IoStats::new();
        let c = s.clone();
        c.add_edges(7);
        assert_eq!(s.snapshot().edges_read, 7);
    }

    #[test]
    fn since_subtracts_counters_and_carries_the_gauge() {
        let s = IoStats::new();
        s.add_edges(5);
        s.add_cache_miss();
        s.set_cache_resident(512);
        let a = s.snapshot();
        s.add_edges(3);
        s.add_cache_hit();
        s.set_cache_resident(256);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.edges_read, 3);
        assert_eq!(d.cache_hits, 1);
        assert_eq!(d.cache_misses, 0);
        assert_eq!(
            d.cache_bytes_resident, 256,
            "gauge: later value, not a diff"
        );
    }
}
