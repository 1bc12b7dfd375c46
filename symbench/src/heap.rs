//! Live-heap accounting for `peak_heap_mb`.
//!
//! Resident set size read 52–68 MiB over four runs of one seed on the
//! same inputs: glibc keeps memory freed by the parallel index builds in
//! per-thread arenas, and how much depends on thread timing. The bytes
//! the program holds live do not, so the benchmark counts those.
//!
//! Each thread batches its allocations in a thread-local balance and
//! adds it to the shared count only once it passes [`BATCH`] bytes
//! either way, so client and fan-out threads do not contend on one
//! counter. The peak is therefore exact to within [`BATCH`] bytes per
//! running thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes a thread may hold back from the shared count.
pub const BATCH: isize = 256 << 10;

/// The system allocator, counting live and peak bytes.
pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread's unflushed balance; flushed when the thread ends.
struct Local(Cell<isize>);

impl Drop for Local {
    fn drop(&mut self) {
        flush(self.0.replace(0));
    }
}

thread_local! {
    static BALANCE: Local = const { Local(Cell::new(0)) };
}

fn flush(delta: isize) {
    // Statistics only: Relaxed publishes no other data.
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn account(delta: isize) {
    let batched = BALANCE.try_with(|b| {
        let v = b.0.get() + delta;
        if v.abs() >= BATCH {
            b.0.set(0);
            flush(v);
        } else {
            b.0.set(v);
        }
    });
    // During thread teardown the balance is gone: count directly.
    if batched.is_err() {
        flush(delta);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the accounting touches only atomics and a `Cell` balance, never the
// memory, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Peak live heap since the last [`reset_peak`] (or since the process
/// started), in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Start a new peak from the bytes live now, so that a run's peak does
/// not include what an earlier run in the same process held.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Mutex;

    /// The counters are process-wide: tests that reset or read the
    /// peak run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn peak_covers_a_live_allocation_made_on_another_thread() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let size = 64usize << 20;
        std::thread::spawn(move || {
            let big = vec![0u8; size];
            std::hint::black_box(&big);
        })
        .join()
        .unwrap();
        assert!(PEAK.load(Ordering::Relaxed) >= size as isize - BATCH);
        assert!(LIVE.load(Ordering::Relaxed) < PEAK.load(Ordering::Relaxed));
    }

    #[test]
    fn a_reset_peak_leaves_out_what_an_earlier_run_held() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let first = vec![0u8; 48 << 20];
        std::hint::black_box(&first);
        drop(first);
        assert!(peak_mb() >= 47.0);
        reset_peak();
        let second = vec![0u8; 8 << 20];
        std::hint::black_box(&second);
        let peak = peak_mb();
        drop(second);
        assert!((7.0..40.0).contains(&peak), "second run's peak {peak} MiB");
    }
}
