//! Counting global-allocator wrapper.
//!
//! Wraps [`std::alloc::System`] and keeps four relaxed atomic counters:
//! total allocation count, total bytes allocated, currently live bytes,
//! and the peak of live bytes. Every build installs it as the
//! `#[global_allocator]`, so the counters are always live.
//!
//! Overhead is a handful of relaxed atomic RMWs per allocation —
//! invisible next to the allocation itself. The peak-live update is an
//! explicit compare-exchange max loop: a plain read-compare-store pair
//! would let two concurrently allocating threads each observe a stale
//! peak and under-report the true maximum, which matters now that the
//! `--jobs` sweep executor allocates from worker threads.
//!
//! For per-*thread* windows (a worker's own allocation delta, untainted
//! by its siblings) the wrapper additionally bumps two `thread_local!`
//! cells; [`thread_stats`] reads them. The cells are `const`-initialized
//! `Cell<u64>`s with no destructor, so touching them from inside the
//! global allocator cannot recurse into an allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] that counts and then defers to [`System`].
pub struct CountingAlloc;

#[inline]
fn note_alloc(size: usize) {
    ALLOC_COUNT.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Relaxed) + size as u64;
    // Compare-exchange max: never overwrite a larger peak another thread
    // published between our load and our store.
    let mut peak = PEAK_LIVE_BYTES.load(Relaxed);
    while live > peak {
        match PEAK_LIVE_BYTES.compare_exchange_weak(peak, live, Relaxed, Relaxed) {
            Ok(_) => break,
            Err(observed) => peak = observed,
        }
    }
    let _ = THREAD_ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_ALLOC_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

#[inline]
fn note_dealloc(size: usize) {
    // Saturating: a foreign dealloc racing startup cannot underflow.
    let _ = LIVE_BYTES.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size as u64)));
}

// SAFETY: defers every allocation verbatim to `System`; the counters
// are side tables and never influence pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Let System realloc in place when it can; count the new block
        // as one allocation and move live from the old to the new size.
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note_alloc(new_size);
            note_dealloc(layout.size());
        }
        p
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// A snapshot of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Total number of allocations (incl. zeroed and reallocs).
    pub count: u64,
    /// Total bytes ever allocated.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// Peak of live bytes over the process lifetime.
    pub peak_live: u64,
}

impl AllocStats {
    /// The counters accrued since `earlier` (count/bytes are deltas;
    /// live/peak_live stay absolute, as deltas would be meaningless).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            count: self.count.saturating_sub(earlier.count),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            live: self.live,
            peak_live: self.peak_live,
        }
    }
}

/// Read the current counters.
pub fn stats() -> AllocStats {
    let (live, peak_live) = live_and_peak();
    AllocStats {
        count: ALLOC_COUNT.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        live,
        peak_live,
    }
}

/// Live bytes and their peak. An allocation on another thread publishes
/// its live bytes before it raises the peak, so a reader can see the new
/// live value with the old peak; the true peak is at least any live
/// value seen.
fn live_and_peak() -> (u64, u64) {
    let live = LIVE_BYTES.load(Relaxed);
    (live, PEAK_LIVE_BYTES.load(Relaxed).max(live))
}

/// Read the calling thread's counters: `count`/`bytes` cover only this
/// thread's allocations (so a `--jobs` worker's per-workload delta is
/// untainted by its siblings), while `live`/`peak_live` stay the
/// process-wide values — per-thread liveness is meaningless once a
/// buffer is freed on a different thread than allocated it.
pub fn thread_stats() -> AllocStats {
    let (live, peak_live) = live_and_peak();
    AllocStats {
        count: THREAD_ALLOC_COUNT.with(Cell::get),
        bytes: THREAD_ALLOC_BYTES.with(Cell::get),
        live,
        peak_live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_observe_allocations_when_enabled() {
        let before = stats();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let after = stats();
        drop(v);
        let d = after.since(&before);
        assert!(d.count >= 1, "allocation not counted: {d:?}");
        assert!(d.bytes >= 1 << 16, "bytes not counted: {d:?}");
        assert!(after.peak_live >= after.live);
    }

    #[test]
    fn concurrent_peak_is_never_under_reported() {
        // Eight threads each hold a block while reading the live
        // counter; every observed live value is a lower bound on the
        // true peak, so the final peak must dominate all of them.
        let observed_max = std::sync::Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let observed = std::sync::Arc::clone(&observed_max);
                std::thread::spawn(move || {
                    for round in 0..64 {
                        let block: Vec<u8> = vec![0; 4096 + t * 512 + round];
                        let live_while_held = stats().live;
                        observed.fetch_max(live_while_held, Relaxed);
                        drop(block);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let peak = stats().peak_live;
        let seen = observed_max.load(Relaxed);
        assert!(peak >= seen, "peak {peak} under-reports an observed live of {seen}");
    }

    #[test]
    fn thread_stats_exclude_sibling_allocations() {
        let before = thread_stats();
        // A sibling thread allocates heavily; none of it may show up in
        // this thread's window.
        std::thread::spawn(|| {
            let sink: Vec<Vec<u8>> = (0..32).map(|_| vec![0u8; 8192]).collect();
            assert!(thread_stats().bytes >= 32 * 8192, "the sibling sees its own work");
            drop(sink);
        })
        .join()
        .unwrap();
        let quiet = thread_stats().since(&before);
        assert!(
            quiet.bytes < 32 * 8192,
            "sibling allocations leaked into this thread's window: {quiet:?}"
        );
        // This thread's own allocations do land in its window.
        let v: Vec<u8> = Vec::with_capacity(1 << 14);
        let after = thread_stats().since(&before);
        drop(v);
        assert!(after.count >= 1 && after.bytes >= 1 << 14, "{after:?}");
    }

    #[test]
    fn since_is_saturating_and_keeps_absolutes() {
        let a = AllocStats { count: 10, bytes: 100, live: 7, peak_live: 9 };
        let b = AllocStats { count: 4, bytes: 40, live: 3, peak_live: 9 };
        let d = a.since(&b);
        assert_eq!(d, AllocStats { count: 6, bytes: 60, live: 7, peak_live: 9 });
        // A stale "later" snapshot saturates instead of wrapping.
        let z = b.since(&a);
        assert_eq!((z.count, z.bytes), (0, 0));
    }
}
