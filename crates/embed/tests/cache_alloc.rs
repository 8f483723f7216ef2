//! The steady-state cache fill path must be allocation-free: once a
//! `GpuCache` has reached capacity and its policy's side structures have
//! seen the working set, sustained miss→fill→evict churn may not allocate.
//! The engine runs this loop on every trainer every step, so a hidden
//! `Vec`/`HashMap` growth here is a per-step tax (and the exact regression
//! the flat-arena rewrite removed: the old `insert(key, slot.to_vec())`
//! call allocated one `Vec` per fill).
//!
//! Own test binary so the `#[global_allocator]` swap cannot perturb other
//! suites.

use frugal_embed::{CachePolicy, GpuCache, InsertOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const DIM: usize = 16;
const CAP: usize = 64;
const UNIVERSE: u64 = 256;

/// One churn pass: a strided walk over a fixed key universe 4× the cache
/// capacity — every round misses, fills, and (at capacity) evicts.
/// Returns the number of accepted fills so the work cannot be optimized
/// away.
fn churn(cache: &mut GpuCache, row: &[f32], rounds: u64) -> u64 {
    let mut filled = 0u64;
    for r in 0..rounds {
        for i in 0..UNIVERSE {
            let key = (i * 7 + r) % UNIVERSE;
            if cache.get(&key).is_some() {
                continue;
            }
            if cache.admits(key)
                && !matches!(cache.insert_from_slice(key, row), InsertOutcome::Rejected)
            {
                filled += 1;
            }
        }
    }
    filled
}

#[test]
fn steady_state_fill_loop_never_allocates() {
    let row = vec![1.0f32; DIM];
    for policy in [
        CachePolicy::StaticHot,
        CachePolicy::Lru,
        CachePolicy::FrequencyAware,
    ] {
        let mut cache = GpuCache::new(CAP, DIM, policy);
        cache.set_hot_threshold(CAP as u64);
        // Warm-up: reach capacity and let the policy's side structures
        // (recency list, frequency table) grow to their working-set
        // footprint. Enough rounds that the frequency policy also crosses
        // several decay boundaries before measurement starts.
        churn(&mut cache, &row, 8);
        // Footprint spike: walk a batch of cold keys so the frequency
        // table resizes to its terminal capacity *now*. A table the
        // universe fits snugly (above half its usable capacity) defers
        // exactly one tombstone-triggered resize to whenever erase/insert
        // churn next crosses its load threshold — a moment that depends on
        // the per-process hash seed and would otherwise land in the
        // measured region on some runs.
        for k in 0..10 * UNIVERSE {
            let _ = cache.get(&(UNIVERSE + k));
        }
        churn(&mut cache, &row, 4);
        let (filled, allocs) = count_allocs(|| churn(&mut cache, &row, 16));
        std::hint::black_box(filled);
        assert_eq!(
            allocs, 0,
            "{policy:?} allocated during steady-state churn ({filled} fills)"
        );
    }
}

#[test]
fn oracle_fill_loop_never_allocates_once_plans_are_fed() {
    // The oracle allocates while *ingesting* lookahead feeds
    // (prepare_step); the fill/evict path itself must still be free. Feed
    // the whole future up front, then measure the per-step loop.
    let row = vec![1.0f32; DIM];
    let steps = 64u64;
    let mut cache = GpuCache::new(CAP, DIM, CachePolicy::OracleBelady);
    // A sliding window: each step reads 48 keys, 8 of them new, so every
    // step misses on the entering keys and fills them over residents that
    // just left the window (next used a full lap of the universe later).
    let feeds: Vec<Vec<u64>> = (0..steps)
        .map(|s| (0..48).map(|i| (s * 8 + i) % UNIVERSE).collect())
        .collect();
    for (s, keys) in feeds.iter().enumerate() {
        cache.prepare_step(s as u64, keys);
    }
    // Warm-up steps fill the arena to capacity and run enough evictions
    // that the key→slot map's deferred tombstone resize (see the churn
    // test) happens before measurement.
    let warm = 8u64;
    for s in 0..warm {
        cache.begin_step(s);
        churn_step(&mut cache, &feeds[s as usize], &row);
    }
    let (filled, allocs) = count_allocs(|| {
        let mut filled = 0u64;
        for s in warm..steps {
            cache.begin_step(s);
            filled += churn_step(&mut cache, &feeds[s as usize], &row);
        }
        filled
    });
    std::hint::black_box(filled);
    assert!(
        filled > 0,
        "the measured window must exercise the fill path"
    );
    assert_eq!(
        allocs, 0,
        "oracle allocated during fed steady-state churn ({filled} fills)"
    );
}

fn churn_step(cache: &mut GpuCache, keys: &[u64], row: &[f32]) -> u64 {
    let mut filled = 0u64;
    for &key in keys {
        if cache.get(&key).is_some() {
            continue;
        }
        if !matches!(cache.insert_from_slice(key, row), InsertOutcome::Rejected) {
            filled += 1;
        }
    }
    filled
}
