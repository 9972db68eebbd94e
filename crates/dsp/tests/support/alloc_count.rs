//! Counting global allocator shared by the zero-allocation suites
//! (`crates/dsp/tests/alloc_free.rs` and
//! `crates/analog/tests/alloc_free.rs`, which includes this file by
//! path). Installing it makes it the test binary's allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every test body in a binary using this allocator holds this lock,
/// so no two measured windows overlap on the shared counter.
static SERIAL: Mutex<()> = Mutex::new(());

pub fn serialize_test() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set only inside [`allocations`], so the counter sees the
    /// measuring thread alone: libtest's own threads (spawning the next
    /// test, collecting output) allocate at any time.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter neither
// allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and counts the heap allocations this thread made in it.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}
