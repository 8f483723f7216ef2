//! Per-thread phase recorders and RAII span guards.
//!
//! A [`ThreadRecorder`] is created once per engine thread from a
//! [`Telemetry`](crate::Telemetry) handle and owns that thread's trace
//! ring and step-ledger lane. A [`Span`] over a [`LedgerPhase`] reads the
//! clock when it opens and once more when it closes; that one duration
//! goes to the phase's histogram (for percentiles), the thread's bounded
//! ring (for Chrome trace export) and the thread's ledger cell (for
//! per-step attribution). When telemetry is disabled the recorder is
//! empty and a span is a no-op that never reads the clock; the entry
//! points are `#[inline(always)]` so that no-op stays a branch even in
//! unoptimised builds.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use crate::ledger::{Lane, LedgerPhase};
use crate::registry::Histogram;
use crate::trace::{FlowRecord, FlowSink, SpanEvent, ThreadBuf, TraceCollector};

/// Up to two numeric key/value annotations attached to a span
/// (e.g. stall attribution on a P²F wait).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanArgs {
    pairs: [(&'static str, u64); 2],
    len: u8,
}

impl SpanArgs {
    /// No annotations.
    pub const EMPTY: SpanArgs = SpanArgs {
        pairs: [("", 0); 2],
        len: 0,
    };

    /// One annotation.
    pub fn one(k: &'static str, v: u64) -> Self {
        SpanArgs {
            pairs: [(k, v), ("", 0)],
            len: 1,
        }
    }

    /// Two annotations.
    pub fn two(k1: &'static str, v1: u64, k2: &'static str, v2: u64) -> Self {
        SpanArgs {
            pairs: [(k1, v1), (k2, v2)],
            len: 2,
        }
    }

    /// The annotations, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.pairs.iter().take(self.len as usize).copied()
    }

    /// Whether there are no annotations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-thread span recorder handed out by
/// [`Telemetry::recorder`](crate::Telemetry::recorder).
///
/// Not `Sync` on purpose: each engine thread owns its recorder, so the
/// sequence counter and step are plain [`Cell`]s, and the ledger lane
/// has the single writer its slot retagging relies on.
#[derive(Debug)]
pub struct ThreadRecorder {
    inner: Option<RecorderInner>,
}

#[derive(Debug)]
pub(crate) struct RecorderInner {
    buf: Arc<ThreadBuf>,
    flows: Arc<FlowSink>,
    lane: Lane,
    epoch: Instant,
    seq: Cell<u64>,
    /// The training step trainer phases are booked to in the ledger.
    step: Cell<u64>,
    hists: [Arc<Histogram>; LedgerPhase::COUNT],
}

impl RecorderInner {
    fn open(&self, phase: LedgerPhase, start: Instant, args: SpanArgs) -> Span<'_> {
        let begin_seq = self.seq.get();
        self.seq.set(begin_seq + 1);
        Span(Some(ActiveSpan {
            rec: self,
            phase,
            start,
            begin_seq,
            args,
        }))
    }

    /// Files one completed interval in the histogram, the ledger and the
    /// trace ring.
    fn commit(
        &self,
        phase: LedgerPhase,
        start: Instant,
        dur_ns: u64,
        begin_seq: u64,
        args: SpanArgs,
    ) {
        let end_seq = self.seq.get();
        self.seq.set(end_seq + 1);
        self.hists[phase.index()].record(dur_ns);
        self.lane.add(self.step.get(), phase, dur_ns);
        self.buf.push(SpanEvent {
            phase,
            begin_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            begin_seq,
            end_seq,
            args,
        });
    }
}

impl ThreadRecorder {
    /// A recorder that does nothing (telemetry off).
    pub fn disabled() -> Self {
        ThreadRecorder { inner: None }
    }

    pub(crate) fn enabled(
        buf: Arc<ThreadBuf>,
        flows: Arc<FlowSink>,
        lane: Lane,
        epoch: Instant,
        hists: [Arc<Histogram>; LedgerPhase::COUNT],
    ) -> Self {
        ThreadRecorder {
            inner: Some(RecorderInner {
                buf,
                flows,
                lane,
                epoch,
                seq: Cell::new(0),
                step: Cell::new(0),
                hists,
            }),
        }
    }

    /// Whether spans opened on this recorder actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the training step this thread's trainer-phase spans are
    /// booked to in the ledger. Flusher phases follow the ledger's step
    /// cursor instead (see [`LedgerPhase::is_flusher`]).
    #[inline(always)]
    pub fn set_step(&self, step: u64) {
        if let Some(rec) = &self.inner {
            rec.step.set(step);
        }
    }

    /// Emits the producing half of a cross-thread flow arrow (Chrome
    /// `ph:"s"`), e.g. a flusher batch that just cleared its in-flight
    /// marker. `id == 0` means "no batch" and is ignored, as is a
    /// disabled recorder.
    pub fn flow_start(&self, id: u64) {
        self.flow(id, true);
    }

    /// Emits the consuming half of a flow arrow (Chrome `ph:"f"`,
    /// binding to the enclosing slice end), e.g. a trainer observing the
    /// stall-clearing batch. `id == 0` is ignored.
    pub fn flow_finish(&self, id: u64) {
        self.flow(id, false);
    }

    fn flow(&self, id: u64, start: bool) {
        let Some(rec) = &self.inner else { return };
        if id == 0 {
            return;
        }
        rec.flows.push(FlowRecord {
            id,
            tid: TraceCollector::tid_of(&rec.buf),
            ts_ns: rec.epoch.elapsed().as_nanos() as u64,
            start,
        });
    }

    /// Opens an unannotated span for `phase`; it records when dropped.
    #[inline(always)]
    pub fn span(&self, phase: LedgerPhase) -> Span<'_> {
        match &self.inner {
            None => Span(None),
            Some(rec) => rec.open(phase, Instant::now(), SpanArgs::EMPTY),
        }
    }

    /// Opens a span carrying `args` annotations.
    #[inline(always)]
    pub fn span_with(&self, phase: LedgerPhase, args: SpanArgs) -> Span<'_> {
        match &self.inner {
            None => Span(None),
            Some(rec) => rec.open(phase, Instant::now(), args),
        }
    }

    /// Opens a span that began at `start`, for a site that reads the
    /// clock at the phase's start anyway. Closing it is the only further
    /// clock read.
    #[inline(always)]
    pub fn span_since(&self, phase: LedgerPhase, start: Instant, args: SpanArgs) -> Span<'_> {
        match &self.inner {
            None => Span(None),
            Some(rec) => rec.open(phase, start, args),
        }
    }

    /// Records an interval the caller already timed: it began at `start`
    /// and lasted `dur_ns`. For sites whose own counters need the
    /// duration whether or not telemetry is on (flusher batches, epoch
    /// transitions), and that only decide afterwards whether an interval
    /// is worth recording (a dequeue poll that found work, not the
    /// thousands of idle polls). Reads no clock. Both sequence numbers are
    /// taken at completion, so ordering versus RAII spans on the same
    /// thread stays consistent as long as the interval does not overlap
    /// one — which single-threaded phase structure guarantees.
    #[inline(always)]
    pub fn record(&self, phase: LedgerPhase, start: Instant, dur_ns: u64, args: SpanArgs) {
        let Some(rec) = &self.inner else { return };
        let begin_seq = rec.seq.get();
        rec.seq.set(begin_seq + 1);
        rec.commit(phase, start, dur_ns, begin_seq, args);
    }
}

/// An in-flight phase timing; completes (histogram, ledger and trace
/// ring) on drop.
#[must_use = "a span records its phase duration when dropped"]
#[derive(Debug)]
pub struct Span<'a>(Option<ActiveSpan<'a>>);

#[derive(Debug)]
struct ActiveSpan<'a> {
    rec: &'a RecorderInner,
    phase: LedgerPhase,
    start: Instant,
    begin_seq: u64,
    args: SpanArgs,
}

impl Span<'_> {
    /// Ends the span now and returns its duration in nanoseconds
    /// (0 when telemetry is disabled).
    #[inline(always)]
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    #[inline(always)]
    fn close(&mut self) -> u64 {
        let Some(a) = &self.0 else { return 0 };
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        a.rec.commit(a.phase, a.start, dur_ns, a.begin_seq, a.args);
        self.0 = None;
        dur_ns
    }
}

impl Drop for Span<'_> {
    #[inline(always)]
    fn drop(&mut self) {
        self.close();
    }
}

/// A histogram-only latency probe for hot call sites shared across
/// threads (priority-queue operations, host-store row traffic).
///
/// Unlike [`Span`], a probe emits no trace events — per-op events would
/// flood the ring — and a disabled probe's [`Probe::time`] compiles down
/// to calling the closure.
#[derive(Debug, Clone, Default)]
pub struct Probe(Option<Arc<Histogram>>);

impl Probe {
    /// A probe that does nothing.
    pub fn disabled() -> Self {
        Probe(None)
    }

    pub(crate) fn enabled(h: Arc<Histogram>) -> Self {
        Probe(Some(h))
    }

    /// Whether this probe records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f`, recording its wall time when enabled.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            None => f(),
            Some(h) => {
                let t0 = Instant::now();
                let out = f();
                h.record(t0.elapsed().as_nanos() as u64);
                out
            }
        }
    }

    /// Records an externally measured duration.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(h) = &self.0 {
            h.record(ns);
        }
    }

    /// RAII variant of [`Probe::time`]: starts the clock now and records
    /// when the returned guard drops. Useful where the timed region has
    /// multiple exits.
    #[inline]
    pub fn timer(&self) -> ProbeTimer<'_> {
        ProbeTimer(self.0.as_deref().map(|h| (h, Instant::now())))
    }
}

/// Guard returned by [`Probe::timer`]; records its lifetime on drop.
#[derive(Debug)]
pub struct ProbeTimer<'a>(Option<(&'a Histogram, Instant)>);

impl Drop for ProbeTimer<'_> {
    fn drop(&mut self) {
        if let Some((h, t0)) = self.0.take() {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }
}
