//! What `std` does not measure: process CPU time at nanosecond resolution
//! and the peak of live heap bytes.

// The benchmark's only unsafe code: one foreign call (std exposes no
// process CPU clock, and `/proc/self/stat` only counts 10 ms ticks) and the
// counting wrapper around the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of all threads.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds consumed by this process (all threads) so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked by the cfg above) that outlives the
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The system allocator, counting live and peak bytes.
///
/// `VmHWM` of a 13 MiB process moves by ±9 % from seed to seed (arena
/// trimming, fragmentation); the bytes the program asked for repeat
/// exactly, so that is the memory metric that can carry a 5 % bound.
pub struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The counters are statistics: they publish no other data, so `Relaxed`.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only adds to two counters and never
// touches the memory or the layout.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are forwarded as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are forwarded as they are.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are forwarded as they are.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are forwarded as they are.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Most heap bytes live at once so far, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn peak_heap_follows_the_largest_live_allocation() {
        let before = peak_heap_mib();
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        drop(big);
        let after = peak_heap_mib();
        assert!(after >= 64.0 && after >= before, "peak {after} MiB after a 64 MiB vector");
        let mut v = std::hint::black_box(Vec::<u8>::with_capacity(1 << 20));
        v.resize(32 << 20, 0);
        v.shrink_to(1 << 10);
        assert!(peak_heap_mib() >= after, "the peak never falls");
    }
}
