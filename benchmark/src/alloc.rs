//! A counting wrapper around the system allocator: allocation events,
//! live bytes and the live-byte high-water mark.
//!
//! Heap figures in this benchmark come from here and never from RSS:
//! RSS drifted 7–9 % between identical runs on this sandbox, while
//! these counts repeat (exactly on the single-threaded workloads,
//! within a few events where server threads interleave).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The allocator; the process-wide instance is [`GLOBAL`]. The counters
/// are fields (not statics) so the unit tests can drive a private
/// instance without seeing the test harness's own allocations.
pub struct CountingAlloc {
    allocs: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

/// What the allocator has seen so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `realloc` events since process start.
    pub allocs: u64,
    /// Bytes currently allocated.
    pub live: usize,
    /// Largest `live` since the last [`CountingAlloc::reset_peak`].
    pub peak: usize,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
        }
    }

    /// Restarts the high-water mark from the current live size, so a
    /// phase's peak excludes what earlier phases freed.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    // The counters are statistics: they publish no other data, so
    // `Relaxed` is enough.
    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counters never influence the pointer
// or layout handed back.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                self.grew(new_size - layout.size());
            } else {
                self.shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
pub static GLOBAL: CountingAlloc = CountingAlloc::new();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_events_live_bytes_and_peak() {
        let a = CountingAlloc::new();
        let l64 = Layout::from_size_align(64, 8).unwrap();
        let l16 = Layout::from_size_align(16, 8).unwrap();
        // SAFETY: layouts are non-zero-sized; every pointer is freed
        // below with the layout it was last (re)allocated with.
        unsafe {
            let p = a.alloc(l64);
            let q = a.alloc_zeroed(l16);
            assert_eq!(
                a.snapshot(),
                AllocSnapshot {
                    allocs: 2,
                    live: 80,
                    peak: 80
                }
            );
            a.dealloc(q, l16);
            let p = a.realloc(p, l64, 256);
            assert_eq!(
                a.snapshot(),
                AllocSnapshot {
                    allocs: 3,
                    live: 256,
                    peak: 256
                }
            );
            let l256 = Layout::from_size_align(256, 8).unwrap();
            let p = a.realloc(p, l256, 32);
            assert_eq!(a.snapshot().live, 32);
            assert_eq!(
                a.snapshot().peak,
                256,
                "shrinking keeps the high-water mark"
            );
            a.reset_peak();
            assert_eq!(a.snapshot().peak, 32);
            a.dealloc(p, Layout::from_size_align(32, 8).unwrap());
        }
        assert_eq!(a.snapshot().live, 0);
        assert_eq!(a.snapshot().allocs, 4);
    }

    #[test]
    fn the_global_instance_sees_this_process() {
        let before = GLOBAL.snapshot().allocs;
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(1024));
        assert!(GLOBAL.snapshot().allocs > before);
        assert!(GLOBAL.snapshot().live >= 8 * 1024);
        drop(v);
    }
}
