//! The flusher's steady-state queue round trip must be allocation-free:
//! once the buckets' segments have grown to the working set, an
//! `enqueue_batch` followed by `dequeue_batch_guarded` into a reused
//! output vector may not allocate. The flusher runs this loop for every
//! batch it claims, so an allocation here is a per-batch tax.
//!
//! Own test binary so the `#[global_allocator]` swap cannot perturb other
//! suites.

use frugal_pq::{Priority, PriorityQueue, TwoLevelPq, INFINITE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts the allocations a thread makes
/// while its counter is armed (see [`count_allocs`]). The count is per
/// thread, so tests running in parallel in this binary cannot add to each
/// other's measurement.
struct CountingAlloc;

thread_local! {
    /// `Some(n)` while armed: `n` allocations so far on this thread.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while the thread shuts down.
        let _ = ALLOCS.try_with(|c| {
            if let Some(n) = c.get() {
                c.set(Some(n + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocation counter armed and returns its
/// result with the number of allocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.set(Some(0));
    let out = f();
    let n = ALLOCS.replace(None).expect("counter armed");
    (out, n)
}

const MAX_STEP: u64 = 32;
const KEYS: u64 = 512;
/// Rounds after which the priority pattern repeats.
const PERIOD: u64 = MAX_STEP;

/// Round `r`'s batch: every key, at a priority a few steps ahead of `r`
/// (wrapping inside the queue's step range), one key in eight deferred
/// to the ∞ bucket.
fn fill_batch(r: u64, items: &mut Vec<(u64, Priority)>) {
    items.clear();
    items.extend((0..KEYS).map(|k| {
        let p = if k % 8 == 0 {
            INFINITE
        } else {
            (r + k % 5) % PERIOD
        };
        (k, p)
    }));
}

/// `rounds` flusher round trips starting at round `first`: enqueue the
/// round's batch, then drain the queue in 100-entry guarded batches.
/// Returns how many entries were dequeued.
fn round_trips(
    pq: &TwoLevelPq,
    first: u64,
    rounds: u64,
    items: &mut Vec<(u64, Priority)>,
    out: &mut Vec<(u64, Priority)>,
) -> u64 {
    let guard = AtomicU64::new(INFINITE);
    let mut dequeued = 0;
    for r in first..first + rounds {
        fill_batch(r, items);
        pq.enqueue_batch(items);
        loop {
            out.clear();
            guard.store(INFINITE, Ordering::Release);
            pq.dequeue_batch_guarded(100, out, &guard);
            if out.is_empty() {
                break;
            }
            dequeued += out.len() as u64;
        }
    }
    dequeued
}

#[test]
fn steady_state_enqueue_dequeue_never_allocates() {
    let pq = TwoLevelPq::new(MAX_STEP);
    let mut items = Vec::with_capacity(KEYS as usize);
    let mut out = Vec::with_capacity(100);
    // Warm-up: two full priority periods, so every bucket's segments have
    // grown to the most entries the pattern ever puts in it.
    round_trips(&pq, 0, 2 * PERIOD, &mut items, &mut out);
    let (dequeued, allocs) =
        count_allocs(|| round_trips(&pq, 2 * PERIOD, 2 * PERIOD, &mut items, &mut out));
    assert_eq!(dequeued, 2 * PERIOD * KEYS, "every enqueued entry drains");
    assert_eq!(allocs, 0, "steady-state round trips allocated");
}
