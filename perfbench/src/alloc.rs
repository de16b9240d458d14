//! A counting global allocator: exact, host-independent allocation counts
//! per call into the program, read from the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Counting is off until a traced run turns it on, so untraced runs pay one
/// relaxed load per allocation and nothing else.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates or registers thread-exit work.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting allocations and reallocations on the
/// allocating thread while counting is on.
pub struct CountingAlloc;

#[inline]
fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with` fails only during thread teardown; such allocations
        // happen outside every measured call.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter update neither allocates
// nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, since every
        // allocation path above forwards to it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; `new_size` passes through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted on this thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Run `f` and return its result with the allocations it made on this
/// thread (0 while counting is off).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocs();
    let out = f();
    (out, thread_allocs() - before)
}
