//! The disabled telemetry path must be *dark*: a `Telemetry::off()`
//! handle's hot-path operations — span recording (which also feeds the
//! ledger), flow events, stall filing — may allocate nothing and must cost at most a
//! few branches each. The engine calls these on every step of every
//! trainer and flusher, so any hidden cost here taxes un-instrumented
//! runs.

use frugal_telemetry::{LedgerPhase, SpanArgs, StallRecord, Telemetry, ThreadRecorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

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

const ITERS: u64 = 100_000;

/// One round of every disabled hot-path operation the engine performs
/// per step. Returns a value the optimizer cannot discard.
fn hot_ops(telemetry: &Telemetry, rec: &ThreadRecorder, t: Instant, i: u64) -> u64 {
    rec.set_step(i);
    let span = rec.span(LedgerPhase::BarrierA); // no clock read when disabled
    rec.record(LedgerPhase::Compute, t, 42, SpanArgs::EMPTY);
    rec.record(LedgerPhase::FlushApply, t, 7, SpanArgs::EMPTY);
    telemetry.ledger_advance(i);
    rec.flow_start(i + 1);
    rec.flow_finish(i + 1);
    telemetry.record_stall(StallRecord {
        step: i,
        wait_ns: 1,
        blocking_priority: i + 1,
        pending_keys: 1,
        queue_depth: 3,
        blocking_key: Some(9),
        cleared_by: 2,
    });
    span.finish()
}

#[test]
fn disabled_hot_path_never_allocates() {
    let telemetry = Telemetry::off();
    // Setup outside the measured region (the disabled constructors are
    // allocation-free too, but that is not what this test pins down).
    let rec = telemetry.recorder("dark");
    assert!(!rec.is_enabled());
    let t = Instant::now();

    let (sink, allocs) = count_allocs(|| {
        let mut sink = 0u64;
        for i in 0..ITERS {
            sink = sink.wrapping_add(hot_ops(&telemetry, &rec, t, i));
        }
        sink
    });
    std::hint::black_box(sink);
    assert_eq!(allocs, 0, "disabled telemetry allocated on the hot path");
}

#[test]
fn disabled_hot_path_is_cheap() {
    let telemetry = Telemetry::off();
    let rec = telemetry.recorder("dark");
    let t = Instant::now();

    // Warm up, then time. The bound is deliberately loose (100 ns per
    // full round of ~8 disabled calls, i.e. far under 1% of a ~500 µs
    // engine step even if every call sat on the critical path) so the
    // assertion survives noisy CI boxes while still catching an
    // accidental clock read or lock acquisition sneaking into the
    // disabled path. The cost is the fastest of five timed passes: sibling
    // tests share the cores, and a pass they preempt measures them, not
    // the disabled path.
    let mut sink = 0u64;
    for i in 0..1_000 {
        sink = sink.wrapping_add(hot_ops(&telemetry, &rec, t, i));
    }
    let per_round = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..ITERS {
                sink = sink.wrapping_add(hot_ops(&telemetry, &rec, t, i));
            }
            t0.elapsed().as_nanos() as u64 / ITERS
        })
        .min()
        .expect("five passes");
    std::hint::black_box(sink);
    assert!(
        per_round < 100,
        "disabled hot-path round took {per_round} ns (expected branch-only cost)"
    );
}

#[test]
fn disabled_span_recording_is_inert() {
    let telemetry = Telemetry::off();
    let rec = telemetry.recorder("dark");
    let t = Instant::now();
    // A span's finish returns the elapsed time it recorded; disabled
    // recorders return 0 without touching the clock or any buffer.
    let (ns, allocs) = count_allocs(|| {
        rec.span_since(LedgerPhase::Compute, t, SpanArgs::one("rows", 3))
            .finish()
    });
    assert_eq!(ns, 0);
    assert_eq!(allocs, 0);
}
